package warehouse

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/esql"
	"repro/internal/scenario"
	"repro/internal/space"
)

// TestVersionPublication covers the epoch-publication basics: the initial
// empty version, publication on registration, immutability of an acquired
// version across a pass, and the typed-error taxonomy on the read surface.
func TestVersionPublication(t *testing.T) {
	wh := New(replicaSpace(t), DefaultConfig())
	v0 := wh.Acquire()
	if v0 == nil {
		t.Fatal("Acquire before any registration returned nil")
	}
	if v0.Seq() != 1 || len(v0.Views()) != 0 {
		t.Errorf("initial version: seq=%d views=%d, want 1/0", v0.Seq(), len(v0.Views()))
	}

	view, err := wh.DefineView(context.Background(), replicaView)
	if err != nil {
		t.Fatal(err)
	}
	v1 := wh.Acquire()
	if v1.Seq() <= v0.Seq() || v1.Epoch() <= v0.Epoch() {
		t.Errorf("registration did not advance the version: seq %d->%d epoch %d->%d",
			v0.Seq(), v1.Seq(), v0.Epoch(), v1.Epoch())
	}
	if names := v1.ViewNames(); len(names) != 1 || names[0] != "V" {
		t.Fatalf("v1.ViewNames() = %v", names)
	}
	if len(v0.Views()) != 0 {
		t.Error("publishing v1 mutated the already-acquired v0")
	}

	// The serving read path answers from the version's captured state and
	// matches the maintained extent.
	ext, err := v1.Evaluate(context.Background(), "V")
	if err != nil {
		t.Fatal(err)
	}
	if !ext.Equal(view.Extent) {
		t.Errorf("Evaluate = %s, want the maintained extent %s", ext, view.Extent)
	}
	ext2, err := v1.Extent("V")
	if err != nil || !ext2.Equal(ext) {
		t.Errorf("Extent = %v (%v), want Evaluate's result", ext2, err)
	}
	// Second Evaluate rides the per-version plan cache; same answer.
	ext3, err := v1.Evaluate(context.Background(), "V")
	if err != nil || !ext3.Equal(ext) {
		t.Errorf("cached Evaluate = %v (%v)", ext3, err)
	}
	if _, err := v1.Plan("V"); err != nil {
		t.Errorf("Plan(V) = %v", err)
	}

	if _, err := v1.Evaluate(context.Background(), "Nope"); !errors.Is(err, ErrViewNotFound) {
		t.Errorf("Evaluate(Nope) err = %v, want ErrViewNotFound", err)
	}

	// Decease the view; the next version reports it deceased while the old
	// version still serves it.
	if _, err := wh.DefineView(context.Background(), `CREATE VIEW Rigid AS SELECT R.B FROM R`); err != nil {
		t.Fatal(err)
	}
	preChange := wh.Acquire()
	if _, err := wh.ApplyChange(context.Background(), space.Change{Kind: space.DeleteRelation, Rel: "R"}); err != nil {
		t.Fatal(err)
	}
	post := wh.Acquire()
	if _, err := post.Evaluate(context.Background(), "Rigid"); !errors.Is(err, ErrViewDeceased) {
		t.Errorf("Evaluate(Rigid) after decease err = %v, want ErrViewDeceased", err)
	}
	if vv := post.View("Rigid"); vv == nil || !vv.Deceased || len(vv.History) == 0 {
		t.Errorf("deceased view should stay reachable with history, got %+v", vv)
	}
	if _, err := preChange.Evaluate(context.Background(), "Rigid"); err != nil {
		t.Errorf("pre-change version must keep serving Rigid, got %v", err)
	}
	if got := len(post.ViewNames()); got != 1 {
		t.Errorf("post-change live views = %d, want 1 (V survives)", got)
	}
}

// TestVersionSnapshotIsolation pins the copy-on-write guarantee: a version
// acquired before a change keeps serving the old definition and extent even
// after the view adopted a rewriting.
func TestVersionSnapshotIsolation(t *testing.T) {
	wh := New(replicaSpace(t), DefaultConfig())
	if _, err := wh.DefineView(context.Background(), replicaView); err != nil {
		t.Fatal(err)
	}
	before := wh.Acquire()
	defBefore := esql.Print(before.View("V").Def)
	if _, err := wh.ApplyChange(context.Background(), space.Change{Kind: space.DeleteRelation, Rel: "R"}); err != nil {
		t.Fatal(err)
	}
	after := wh.Acquire()
	if got := esql.Print(before.View("V").Def); got != defBefore {
		t.Errorf("held version's definition changed:\n%s\nwas\n%s", got, defBefore)
	}
	if esql.Print(after.View("V").Def) == defBefore {
		t.Error("post-change version still serves the pre-change definition")
	}
	if _, err := before.Evaluate(context.Background(), "V"); err != nil {
		t.Errorf("held version must stay evaluable: %v", err)
	}
}

// TestConcurrentReadersVsApplyChange is the satellite regression test for
// the registry read surface: reader goroutines hammer GetView, LiveViews,
// ViewNames, ViewEpoch, and the version serving path while the writer
// replays a churn history through ApplyChange. On the pre-fix code the
// registry reads raced PruneDeceased/adopt and this failed under -race;
// now readers must be race-clean and every observation internally
// consistent (run with -race to get the full guarantee).
func TestConcurrentReadersVsApplyChange(t *testing.T) {
	h, err := scenario.Churn(scenario.ChurnParams{
		Families:          2,
		TwinsPerFamily:    3,
		Width:             5,
		Donors:            2,
		Spares:            3,
		SpareAttrs:        4,
		Changes:           80,
		Seed:              11,
		FamilyDeleteRatio: 0.2,
		FamilyRenameRatio: 0.1,
		DonorRatio:        0.1,
		ReplaceableViews:  true,
		AllowDecease:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := h.BuildSpace()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.DropVariants = true
	w := New(sp, cfg)
	for _, def := range h.Views() {
		if _, err := w.RegisterView(context.Background(), def); err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	readerErrs := make([]error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			lastSeq := uint64(0)
			for {
				select {
				case <-done:
					return
				default:
				}
				v := w.Acquire()
				if v.Seq() < lastSeq {
					readerErrs[r] = errors.New("version sequence went backwards")
					return
				}
				lastSeq = v.Seq()
				_ = w.ViewEpoch()
				names := w.ViewNames()
				live := w.LiveViews()
				if len(names) != len(live) {
					readerErrs[r] = errors.New("ViewNames and LiveViews disagree on the survivor count")
					return
				}
				for _, name := range v.ViewNames() {
					gv, err := w.GetView(name)
					if err != nil {
						// The view may have deceased or been renamed between
						// the version and the latest publication — both typed
						// outcomes are fine; anything else is a bug.
						if !errors.Is(err, ErrViewNotFound) && !errors.Is(err, ErrViewDeceased) {
							readerErrs[r] = err
							return
						}
						continue
					}
					_ = esql.Print(gv.Def)
					if _, err := v.Evaluate(context.Background(), name); err != nil {
						readerErrs[r] = err
						return
					}
				}
			}
		}(r)
	}

	for i, c := range h.Changes {
		if _, err := w.ApplyChange(context.Background(), c); err != nil {
			close(done)
			wg.Wait()
			t.Fatalf("change %d (%s): %v", i, c, err)
		}
	}
	close(done)
	wg.Wait()
	for r, err := range readerErrs {
		if err != nil {
			t.Errorf("reader %d: %v", r, err)
		}
	}
}
