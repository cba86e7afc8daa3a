package warehouse

import (
	"context"
	"testing"

	"repro/internal/maintain"
	"repro/internal/misd"
	"repro/internal/relation"
	"repro/internal/space"
)

// observedSpace builds a one-source space with a relation R and a replica S
// related by an equality PC constraint, so deleting R gives a view over R a
// single substitution rewriting, and a view without replaceability
// deceases.
func observedSpace(t *testing.T) *space.Space {
	t.Helper()
	sp := space.New()
	if _, err := sp.AddSource("IS1"); err != nil {
		t.Fatal(err)
	}
	mk := func(name, a, b string) *relation.Relation {
		r := relation.New(name, relation.NewSchema(
			relation.Attribute{Name: a, Type: relation.TypeInt},
			relation.Attribute{Name: b, Type: relation.TypeString},
		))
		for i := int64(1); i <= 3; i++ {
			if err := r.Insert(relation.Tuple{relation.Int(i), relation.String("x")}); err != nil {
				t.Fatal(err)
			}
		}
		return r
	}
	if err := sp.AddRelation("IS1", mk("R", "A", "B")); err != nil {
		t.Fatal(err)
	}
	if err := sp.AddRelation("IS1", mk("S", "C", "D")); err != nil {
		t.Fatal(err)
	}
	if err := sp.MKB().AddPCConstraint(misd.PCConstraint{
		Left:  misd.Fragment{Rel: misd.RelRef{Rel: "R"}, Attrs: []string{"A", "B"}},
		Right: misd.Fragment{Rel: misd.RelRef{Rel: "S"}, Attrs: []string{"C", "D"}},
		Rel:   misd.Equal,
	}); err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestObserverHooksFireThroughApplyChange(t *testing.T) {
	sp := observedSpace(t)
	m := &MetricsObserver{}
	cfg := DefaultConfig()
	cfg.Observer = m
	w := New(sp, cfg)

	// Survivor adopts S; Doomed has no replaceable relation and deceases.
	if _, err := w.DefineView(context.Background(), `CREATE VIEW Survivor AS SELECT R.A (AR = true) FROM R (RR = true)`); err != nil {
		t.Fatal(err)
	}
	if _, err := w.DefineView(context.Background(), `CREATE VIEW Doomed AS SELECT R.A FROM R`); err != nil {
		t.Fatal(err)
	}
	results, err := w.ApplyChange(context.Background(), space.Change{Kind: space.DeleteRelation, Rel: "R"})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	if got := m.Changes(); got != 1 {
		t.Errorf("Changes = %d, want 1", got)
	}
	if got := m.Syncs(); got != 2 {
		t.Errorf("Syncs = %d, want 2 (one per affected view)", got)
	}
	if got := m.Adopts(); got != 1 {
		t.Errorf("Adopts = %d, want 1 (Survivor)", got)
	}
	if got := m.Deceases(); got != 1 {
		t.Errorf("Deceases = %d, want 1 (Doomed)", got)
	}

	// The deceased outcome folds into the typed error taxonomy.
	var deceasedErrs int
	for _, r := range results {
		if err := r.Err(); err != nil {
			deceasedErrs++
		}
	}
	if deceasedErrs != 1 {
		t.Errorf("SyncResult.Err flagged %d views, want 1", deceasedErrs)
	}
}

func TestObserverNopByDefault(t *testing.T) {
	sp := observedSpace(t)
	w := New(sp, DefaultConfig())
	if _, err := w.DefineView(context.Background(), `CREATE VIEW V AS SELECT R.A (AR = true) FROM R (RR = true)`); err != nil {
		t.Fatal(err)
	}
	// No observer installed: the pass must run exactly as before.
	if _, err := w.ApplyChange(context.Background(), space.Change{Kind: space.DeleteRelation, Rel: "R"}); err != nil {
		t.Fatal(err)
	}
	if got := w.View("V").Def.From[0].Rel; got != "S" {
		t.Fatalf("adopted %q, want S", got)
	}
}

// TestObserverPhaseTimings drives one change, one update batch, and one
// routed query through an observed warehouse and checks that every pipeline
// stage reports wall-clock timings consistent with the event counters:
// PhaseSync observations match ranked searches, PhaseAdopt matches
// adoptions, PhaseMaintain fires per maintained view, and PhaseQuery fires
// per routed query, with totals >= means and zero for untouched phases.
func TestObserverPhaseTimings(t *testing.T) {
	sp := observedSpace(t)
	m := &MetricsObserver{}
	cfg := DefaultConfig()
	cfg.Observer = m
	w := New(sp, cfg)
	if _, err := w.DefineView(context.Background(), `CREATE VIEW V AS SELECT R.A (AR = true) FROM R (RR = true)`); err != nil {
		t.Fatal(err)
	}
	if got := m.PhaseCount(PhaseQuery); got != 0 {
		t.Fatalf("PhaseQuery observed %d times before any query", got)
	}

	if _, err := w.ApplyUpdates(context.Background(), []maintain.Update{{
		Rel: "R", Kind: maintain.Insert,
		Tuple: relation.Tuple{relation.Int(9), relation.String("y")},
	}}); err != nil {
		t.Fatal(err)
	}
	if got := m.PhaseCount(PhaseMaintain); got != 1 {
		t.Errorf("PhaseMaintain count = %d, want 1 (one live view maintained)", got)
	}

	if _, err := w.Acquire().Query(context.Background(), "SELECT R.A FROM R"); err != nil {
		t.Fatal(err)
	}
	if got := m.PhaseCount(PhaseQuery); got != 1 {
		t.Errorf("PhaseQuery count = %d, want 1", got)
	}

	if _, err := w.ApplyChange(context.Background(), space.Change{Kind: space.DeleteRelation, Rel: "R"}); err != nil {
		t.Fatal(err)
	}
	if got, syncs := m.PhaseCount(PhaseSync), m.Syncs(); got != syncs {
		t.Errorf("PhaseSync count = %d, want %d (one per ranked search)", got, syncs)
	}
	if got, adopts := m.PhaseCount(PhaseAdopt), m.Adopts(); got != adopts {
		t.Errorf("PhaseAdopt count = %d, want %d (one per adoption)", got, adopts)
	}
	for _, p := range []Phase{PhaseSync, PhaseAdopt, PhaseMaintain, PhaseQuery} {
		if m.PhaseTotal(p) < m.PhaseMean(p) {
			t.Errorf("%v: total %v < mean %v", p, m.PhaseTotal(p), m.PhaseMean(p))
		}
	}
	if m.PhaseMean(Phase(99)) != 0 || m.PhaseCount(Phase(-1)) != 0 || m.PhaseTotal(numPhases) != 0 {
		t.Error("out-of-range phases must read as zero")
	}
}
