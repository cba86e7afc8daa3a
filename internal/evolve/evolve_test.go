package evolve

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/exec"
	"repro/internal/scenario"
	"repro/internal/space"
	"repro/internal/warehouse"
)

// outcome is one affected view's result for one change, in the terms the
// parity contract is stated: which view, did it survive, what was adopted
// (QC score of the chosen rewriting), and how many legal rewritings were
// ranked.
type outcome struct {
	step       int
	view       string
	deceased   bool
	qc         float64
	candidates int
}

func outcomesOf(step int, results []warehouse.SyncResult) []outcome {
	var out []outcome
	for _, r := range results {
		if r.Ranking == nil && !r.Deceased {
			continue // unaffected row from the reference loop
		}
		o := outcome{step: step, view: r.ViewName, deceased: r.Deceased}
		if r.Ranking != nil {
			o.candidates = len(r.Ranking.Candidates)
		}
		if r.Chosen != nil {
			o.qc = r.Chosen.QC
		}
		out = append(out, o)
	}
	return out
}

// buildWarehouse materializes a fresh warehouse for one side of the
// comparison.
func buildWarehouse(t *testing.T, h *scenario.ChurnHistory, topK int, enumerate bool) *warehouse.Warehouse {
	t.Helper()
	sp, err := h.BuildSpace()
	if err != nil {
		t.Fatal(err)
	}
	if err := scenario.Populate(sp, 12); err != nil {
		t.Fatal(err)
	}
	cfg := warehouse.DefaultConfig()
	cfg.TopK = topK
	cfg.DropVariants = enumerate
	w := warehouse.New(sp, cfg)
	for _, def := range h.Views() {
		if _, err := w.RegisterView(context.Background(), def); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// TestSessionReplayParity is the differential anchor of the evolution
// session: across randomized churn histories (varying families, twins,
// width, donors, view replaceability, decease pressure, TopK, and
// drop-variant enumeration), replaying the stream through one EvolveBatch
// must produce the same surviving views, the same adopted rewritings
// (definition signatures and history notes), and the same QC scores as the
// step-by-step warehouse.ApplyChange loop.
func TestSessionReplayParity(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const trials = 110
	for trial := 0; trial < trials; trial++ {
		p := scenario.ChurnParams{
			Families:          1 + rng.Intn(2),
			TwinsPerFamily:    1 + rng.Intn(3),
			Width:             3 + rng.Intn(3),
			Donors:            rng.Intn(3),
			Spares:            2 + rng.Intn(2),
			SpareAttrs:        3,
			Changes:           25 + rng.Intn(16),
			Seed:              int64(1000 + trial),
			FamilyDeleteRatio: 0.15,
			FamilyRenameRatio: 0.15,
			DonorRatio:        0.15,
			ReplaceableViews:  trial%2 == 1,
			AllowDecease:      trial%3 != 0,
		}
		topK := 0
		if trial%4 >= 2 {
			topK = 1 + rng.Intn(3)
		}
		enumerate := trial%2 == 0
		label := fmt.Sprintf("trial %d (seed %d, topK %d, enum %v, repl %v)",
			trial, p.Seed, topK, enumerate, p.ReplaceableViews)

		h, err := scenario.Churn(p)
		if err != nil {
			t.Fatal(err)
		}

		// Reference: the cold per-change loop.
		ref := buildWarehouse(t, h, topK, enumerate)
		var want []outcome
		for i, c := range h.Changes {
			results, err := ref.ApplyChange(context.Background(), c)
			if err != nil {
				t.Fatalf("%s: reference change %d (%s): %v", label, i, c, err)
			}
			want = append(want, outcomesOf(i, results)...)
			checkExtents(t, fmt.Sprintf("%s: reference change %d (%s)", label, i, c), ref)
		}

		// Session: one batch over an identical warehouse.
		ses := buildWarehouse(t, h, topK, enumerate)
		sess := NewSession(ses)
		steps, err := sess.EvolveBatch(context.Background(), h.Changes)
		if err != nil {
			t.Fatalf("%s: session: %v", label, err)
		}
		if len(steps) != len(h.Changes) {
			t.Fatalf("%s: session reported %d steps for %d changes", label, len(steps), len(h.Changes))
		}
		var got []outcome
		for i, step := range steps {
			got = append(got, outcomesOf(i, step.Results)...)
		}

		comparePerChange(t, label, want, got)
		compareFinalState(t, label, ref, ses)
		checkExtents(t, label+": session", ses)
	}
}

// checkExtents is the adoption oracle: every live view's extent carries the
// view's own name and equals, by row checksum and card, exec.Evaluate of
// its adopted definition over the current space.
func checkExtents(t *testing.T, label string, w *warehouse.Warehouse) {
	t.Helper()
	for _, v := range w.Live() {
		want, err := exec.Evaluate(context.Background(), v.Def, w.Space)
		if err != nil {
			t.Fatalf("%s: evaluating view %s: %v", label, v.Def.Name, err)
		}
		if v.Extent.Name != v.Def.Name || v.Extent.Card() != want.Card() || exec.RowChecksum(v.Extent) != exec.RowChecksum(want) {
			t.Fatalf("%s: view %s holds extent %q (card %d, checksum %x), evaluation card %d checksum %x",
				label, v.Def.Name, v.Extent.Name, v.Extent.Card(), exec.RowChecksum(v.Extent), want.Card(), exec.RowChecksum(want))
		}
	}
}

func comparePerChange(t *testing.T, label string, want, got []outcome) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: reference saw %d affected-view outcomes, session %d\nref: %v\nses: %v",
			label, len(want), len(got), want, got)
	}
	const eps = 1e-12
	for i := range want {
		w, g := want[i], got[i]
		if w.step != g.step || w.view != g.view || w.deceased != g.deceased || w.candidates != g.candidates {
			t.Fatalf("%s: outcome %d diverged\nref: %+v\nses: %+v", label, i, w, g)
		}
		if math.Abs(w.qc-g.qc) > eps {
			t.Fatalf("%s: outcome %d QC diverged: ref %.15f ses %.15f (%+v)", label, i, w.qc, g.qc, w)
		}
	}
}

func compareFinalState(t *testing.T, label string, ref, ses *warehouse.Warehouse) {
	t.Helper()
	refLive, sesLive := ref.LiveViews(), ses.LiveViews()
	if len(refLive) != len(sesLive) {
		t.Fatalf("%s: surviving views diverged: ref %v ses %v", label, refLive, sesLive)
	}
	for i := range refLive {
		if refLive[i] != sesLive[i] {
			t.Fatalf("%s: surviving views diverged: ref %v ses %v", label, refLive, sesLive)
		}
	}
	if names := ref.ViewNames(); len(names) != len(refLive) {
		t.Fatalf("%s: reference ViewNames (%v) disagrees with LiveViews (%v)", label, names, refLive)
	}
	for _, name := range refLive {
		rv, sv := ref.View(name), ses.View(name)
		if rs, ss := rv.Def.Signature(), sv.Def.Signature(); rs != ss {
			t.Fatalf("%s: view %s adopted different definitions\nref: %s\nses: %s", label, name, rs, ss)
		}
		if len(rv.History) != len(sv.History) {
			t.Fatalf("%s: view %s history length diverged\nref: %v\nses: %v", label, name, rv.History, sv.History)
		}
		for i := range rv.History {
			if rv.History[i] != sv.History[i] {
				t.Fatalf("%s: view %s history step %d diverged\nref: %s\nses: %s",
					label, name, i, rv.History[i], sv.History[i])
			}
		}
	}
}

// TestSessionAmortization checks that the machinery the parity test proves
// harmless actually fires on a churn history: view-free changes are
// skipped, twin views share searches, and changes coalesce into fewer
// passes than changes.
func TestSessionAmortization(t *testing.T) {
	p := scenario.DefaultChurnParams()
	p.Changes = 120
	h, err := scenario.Churn(p)
	if err != nil {
		t.Fatal(err)
	}
	w := buildWarehouse(t, h, 0, true)
	sess := NewSession(w)
	if _, err := sess.EvolveBatch(context.Background(), h.Changes); err != nil {
		t.Fatal(err)
	}
	st := sess.Stats()
	if st.Changes != p.Changes {
		t.Fatalf("applied %d of %d changes", st.Changes, p.Changes)
	}
	if st.Skipped == 0 {
		t.Error("expected some changes to skip the synchronization pipeline entirely")
	}
	if st.Groups >= st.Changes {
		t.Errorf("expected coalescing: %d groups for %d changes", st.Groups, st.Changes)
	}
	if st.SearchesShared == 0 {
		t.Error("expected twin views to share memoized searches")
	}
	if st.Searches == 0 {
		t.Error("expected at least one computed search")
	}
	t.Logf("stats: %+v", st)
}

// TestSessionMidBatchError feeds a batch whose middle change the space
// rejects and checks the contract EvolveBatch documents: every change
// before the rejected one lands *and* completes its adopt/decease phase
// (even a group-mate of the rejected change), the rejected change and
// everything after it never land, the returned steps cover exactly the
// landed prefix, and ViewNames/LiveViews stay consistent.
func TestSessionMidBatchError(t *testing.T) {
	p := scenario.DefaultChurnParams()
	p.Families, p.TwinsPerFamily, p.Width, p.Donors, p.Spares = 1, 2, 4, 1, 1
	p.Changes = 1
	h, err := scenario.Churn(p)
	if err != nil {
		t.Fatal(err)
	}
	w := buildWarehouse(t, h, 0, false)
	sess := NewSession(w)

	valid := space.Change{Kind: space.DeleteAttribute, Rel: "W1", Attr: "A1"}
	bogus := space.Change{Kind: space.DeleteAttribute, Rel: "NoSuchRel", Attr: "X"}
	after := space.Change{Kind: space.DeleteAttribute, Rel: "W1", Attr: "A2"}
	steps, err := sess.EvolveBatch(context.Background(), []space.Change{valid, bogus, after})
	if err == nil {
		t.Fatal("expected the space to reject the bogus change")
	}
	if len(steps) != 1 {
		t.Fatalf("expected 1 landed step, got %d", len(steps))
	}
	if len(steps[0].Results) == 0 {
		t.Fatal("landed change should report its affected views")
	}

	// The landed change's views must have fully adopted: their definitions
	// no longer mention the dropped attribute, exactly as the step-by-step
	// reference loop would leave them.
	for _, name := range w.ViewNames() {
		v := w.View(name)
		for _, item := range v.Def.Select {
			if item.Attr.Attr == "A1" {
				t.Fatalf("view %s still selects dropped W1.A1 after mid-batch error:\n%s",
					name, v.Def.Signature())
			}
		}
	}
	// The change after the rejected one never landed: W1.A2 is still there.
	rel := w.Space.Relation("W1")
	if rel == nil {
		t.Fatal("W1 should survive")
	}
	if rel.Schema().IndexOf("A2") < 0 {
		t.Fatal("W1.A2 should survive — the change after the rejection must not land")
	}
	live := w.LiveViews()
	names := w.ViewNames()
	if len(live) != len(names) {
		t.Fatalf("LiveViews (%v) and ViewNames (%v) diverged", live, names)
	}
}
