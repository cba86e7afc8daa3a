package eve

// Race-detector stress: many goroutines drive evolution concurrently on
// independent warehouses — half through evolution sessions (EvolveBatch),
// half through the cold per-change ApplyChange loop — while each
// warehouse's own worker pool fans synchronization out underneath. Every
// shared-state discipline in the stack is exercised at once: the immutable
// pre-change Snapshot, the read-only phase-1 rankings, the write-isolated
// phase-2 adoptions, and the session's memo cache and footprint index.
//
// CI runs this under the race detector as a dedicated step:
//
//	go test -race -run 'Stress|RaceFree' ./...

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/scenario"
)

// stressChurnParams keeps per-goroutine histories small enough that the
// race-instrumented run stays fast while still deceasing views, migrating
// twins onto donors, and skipping view-free changes.
func stressChurnParams(seed int64) scenario.ChurnParams {
	return scenario.ChurnParams{
		Families:          2,
		TwinsPerFamily:    3,
		Width:             5,
		Donors:            2,
		Spares:            3,
		SpareAttrs:        4,
		Changes:           60,
		Seed:              seed,
		FamilyDeleteRatio: 0.15,
		FamilyRenameRatio: 0.10,
		DonorRatio:        0.10,
		ReplaceableViews:  seed%2 == 0,
		AllowDecease:      true,
	}
}

// TestStressConcurrentSessions runs 8 goroutines, each replaying its own
// churn history on its own warehouse: even goroutines batch through an
// evolution session, odd ones loop over ApplyChange. Any cross-warehouse
// sharing bug or unsynchronized access inside the pipeline surfaces as a
// race report or a divergent survivor count.
func TestStressConcurrentSessions(t *testing.T) {
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	survivors := make([]int, goroutines)

	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Goroutine pairs (2k, 2k+1) share a seed: one replays through
			// a session, the other through the reference loop, so the
			// final survivor counts must agree pairwise.
			h, err := scenario.Churn(stressChurnParams(int64(100 + g/2)))
			if err != nil {
				errs[g] = err
				return
			}
			sp, err := h.BuildSpace()
			if err != nil {
				errs[g] = err
				return
			}
			sys, err := New(WithSpace(sp), WithDropVariants(true))
			if err != nil {
				errs[g] = err
				return
			}
			for _, def := range h.Views() {
				if _, err := sys.RegisterView(context.Background(), def); err != nil {
					errs[g] = err
					return
				}
			}
			if g%2 == 0 {
				_, errs[g] = sys.EvolveBatch(context.Background(), h.Changes)
			} else {
				for _, c := range h.Changes {
					if _, err := sys.ApplyChange(context.Background(), c); err != nil {
						errs[g] = err
						return
					}
				}
			}
			survivors[g] = len(sys.Snapshot().ViewNames())
		}(g)
	}
	wg.Wait()

	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	for g := 0; g+1 < goroutines; g += 2 {
		if survivors[g] != survivors[g+1] {
			t.Errorf("seed pair %d: session kept %d views, reference loop %d",
				g/2, survivors[g], survivors[g+1])
		}
	}
}

// TestStressSnapshotIsOneWritePrefix pins Snapshot() from reader goroutines
// while one writer interleaves ApplyUpdates batches (each inserting one
// marker row into both family relations) with EvolveBatch passes, and
// asserts that everything a pinned Version holds — both base relations and
// every view's extent — reflects the same number of landed batches. One
// warehouse publishes one Version per commit point, so the guarantee is
// global: no reader can see a batch in one view and not in another.
func TestStressSnapshotIsOneWritePrefix(t *testing.T) {
	h, err := scenario.Churn(scenario.ChurnParams{
		Families: 2, TwinsPerFamily: 2, Width: 4, Donors: 1,
		Spares: 3, SpareAttrs: 3, Changes: 40, Seed: 31,
		// Ratios zero: every change is spare churn, so the family views keep
		// their definitions while versions keep publishing.
	})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := h.BuildSpace()
	if err != nil {
		t.Fatal(err)
	}
	if err := scenario.Populate(sp, 30); err != nil {
		t.Fatal(err)
	}
	sys, err := New(WithSpace(sp))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, def := range h.Views() {
		if _, err := sys.RegisterView(ctx, def); err != nil {
			t.Fatal(err)
		}
	}
	// Populate stays far below marker; every cell of batch i's rows is
	// marker+i, so projections keep the rows distinct and recognisable.
	const marker = 1 << 20
	markers := func(r *Relation) int {
		n := 0
		for _, tup := range r.Tuples() {
			if tup[0].AsInt() >= marker {
				n++
			}
		}
		return n
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	errc := make(chan error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := 0
			for {
				select {
				case <-done:
					return
				default:
				}
				v := sys.Snapshot()
				k := markers(v.Relation("W1"))
				if k < prev {
					errc <- fmt.Errorf("seq %d: prefix went backwards, %d -> %d batches", v.Seq(), prev, k)
					return
				}
				prev = k
				if got := markers(v.Relation("W2")); got != k {
					errc <- fmt.Errorf("seq %d: W1 holds %d batches, W2 %d", v.Seq(), k, got)
					return
				}
				if len(v.Views()) != len(h.Views()) {
					errc <- fmt.Errorf("seq %d: %d live views, want %d", v.Seq(), len(v.Views()), len(h.Views()))
					return
				}
				for _, vv := range v.Views() {
					if got := markers(vv.Extent); got != k {
						errc <- fmt.Errorf("seq %d: base relations hold %d batches, view %s %d", v.Seq(), k, vv.Name, got)
						return
					}
				}
			}
		}()
	}
	for i, c := range h.Changes {
		row := make(Tuple, 5)
		for j := range row {
			row[j] = Int(int64(marker + i))
		}
		if _, err := sys.ApplyUpdates(ctx, []Update{InsertTuple("W1", row), InsertTuple("W2", row)}); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if _, err := sys.EvolveBatch(ctx, []Change{c}); err != nil {
			t.Fatalf("change %d (%s): %v", i, c, err)
		}
	}
	close(done)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if v := sys.Snapshot(); markers(v.Relation("W1")) != len(h.Changes) {
		t.Fatalf("final version holds %d batches, want %d", markers(v.Relation("W1")), len(h.Changes))
	}
}
