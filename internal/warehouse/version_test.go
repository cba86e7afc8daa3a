package warehouse

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"

	"repro/internal/esql"
	"repro/internal/exec"
	"repro/internal/maintain"
	"repro/internal/relation"
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

	// The serving read is the maintained extent the version captured, and
	// it equals the definition evaluated over the version's base state.
	ext, err := v1.Extent("V")
	if err != nil {
		t.Fatal(err)
	}
	if ext != view.Extent {
		t.Errorf("Extent = %s, want the maintained extent %s", ext, view.Extent)
	}
	want, err := exec.Evaluate(context.Background(), v1.View("V").Def, wh.Space)
	if err != nil {
		t.Fatal(err)
	}
	if !ext.Equal(want) {
		t.Errorf("Extent = %s, want the base evaluation %s", ext, want)
	}

	if _, err := v1.Extent("Nope"); !errors.Is(err, ErrViewNotFound) {
		t.Errorf("Extent(Nope) err = %v, want ErrViewNotFound", err)
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
	if _, err := post.Extent("Rigid"); !errors.Is(err, ErrViewDeceased) {
		t.Errorf("Extent(Rigid) after decease err = %v, want ErrViewDeceased", err)
	}
	if vv := post.View("Rigid"); vv == nil || !vv.Deceased || len(vv.History) == 0 {
		t.Errorf("deceased view should stay reachable with history, got %+v", vv)
	}
	if _, err := preChange.Extent("Rigid"); err != nil {
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
	if ext, err := before.Extent("V"); err != nil || ext.Schema().Attr(0).Name != "A" {
		t.Errorf("held version must keep serving its extent: %v, %v", ext, err)
	}
}

// TestConcurrentReadersVsApplyChange is the regression test for the
// registry read surface: reader goroutines hammer the published Version —
// its sequence, epoch, view list and serving path — while the writer
// replays a churn history through ApplyChange. When the registry was a
// mutable map beside the Version its reads raced the pass and this failed
// under -race; now readers must be race-clean and every observation
// internally consistent (run with -race to get the full guarantee).
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
			lastSeq, lastEpoch := uint64(0), uint64(0)
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
				if v.Epoch() < lastEpoch {
					readerErrs[r] = errors.New("view epoch went backwards")
					return
				}
				lastSeq, lastEpoch = v.Seq(), v.Epoch()
				if len(v.Views()) != len(v.ViewNames()) {
					readerErrs[r] = errors.New("Views and ViewNames disagree within one version")
					return
				}
				for _, name := range v.ViewNames() {
					if _, err := w.Acquire().Extent(name); err != nil {
						// The view may have deceased or been renamed between
						// the version and the latest publication — both typed
						// outcomes are fine; anything else is a bug.
						if !errors.Is(err, ErrViewNotFound) && !errors.Is(err, ErrViewDeceased) {
							readerErrs[r] = err
							return
						}
					}
					_ = esql.Print(v.View(name).Def)
					if _, err := v.Extent(name); err != nil {
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

// TestUnchangedViewsCarriedByPointer: each Version is built from the previous
// one, so a view a commit point left unchanged is the same *VersionView in
// both — across a change whose footprint misses every view, across a
// data-update batch for a deceased view, and across an adoption for every
// view but the adopted one.
func TestUnchangedViewsCarriedByPointer(t *testing.T) {
	ctx := context.Background()
	sp := replicaSpace(t)
	for _, name := range []string{"Spare", "Aside"} {
		if err := sp.AddRelation("IS1", relation.MustFromRows(name, relation.MustSchema(relation.TypeInt, "X"),
			relation.IntRows([]int64{1})...)); err != nil {
			t.Fatal(err)
		}
	}
	wh := New(sp, DefaultConfig())
	for _, src := range []string{
		replicaView, // V over R, adopts Rep when R goes
		`CREATE VIEW Rigid AS SELECT Spare.X FROM Spare`,
		`CREATE VIEW Bystander AS SELECT Rep.A FROM Rep`,
	} {
		if _, err := wh.DefineView(ctx, src); err != nil {
			t.Fatal(err)
		}
	}
	names := []string{"V", "Rigid", "Bystander"}
	step := func(label string, moved []string, epochMoves bool, apply func() error) {
		t.Helper()
		prev := wh.Acquire()
		if err := apply(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		next := wh.Acquire()
		if next.Seq() != prev.Seq()+1 {
			t.Errorf("%s: seq %d -> %d, want one publication", label, prev.Seq(), next.Seq())
		}
		if got := next.Epoch() != prev.Epoch(); got != epochMoves {
			t.Errorf("%s: epoch %d -> %d, want moved=%v", label, prev.Epoch(), next.Epoch(), epochMoves)
		}
		for _, n := range names {
			if same := next.View(n) == prev.View(n); same == slices.Contains(moved, n) {
				t.Errorf("%s: view %s carried by pointer = %v, want %v", label, n, same, !same)
			}
		}
	}

	step("change missing every view", nil, false, func() error {
		_, err := wh.ApplyChange(ctx, space.Change{Kind: space.DeleteRelation, Rel: "Aside"})
		return err
	})
	step("adoption", []string{"V"}, true, func() error {
		_, err := wh.ApplyChange(ctx, space.Change{Kind: space.DeleteRelation, Rel: "R"})
		return err
	})
	if v := wh.Acquire().View("V"); v.Deceased || v.Def.From[0].Rel != "Rep" {
		t.Fatalf("V should have adopted Rep: deceased=%v def=%s", v.Deceased, v.Def.Signature())
	}
	step("decease", []string{"Rigid"}, true, func() error {
		_, err := wh.ApplyChange(ctx, space.Change{Kind: space.DeleteRelation, Rel: "Spare"})
		return err
	})
	if !wh.Acquire().View("Rigid").Deceased {
		t.Fatal("Rigid should have deceased with Spare")
	}
	step("data update", []string{"V", "Bystander"}, false, func() error {
		_, err := wh.ApplyUpdates(ctx, []maintain.Update{
			{Kind: maintain.Insert, Rel: "Rep", Tuple: relation.Tuple{relation.Int(7), relation.Int(70)}},
		})
		return err
	})
}
