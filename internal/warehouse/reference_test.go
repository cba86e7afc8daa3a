package warehouse

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/conc"
	"repro/internal/exec"
	"repro/internal/maintain"
	"repro/internal/scenario"
	"repro/internal/space"
	"repro/internal/synchronize"
)

// referenceApplyChange is the per-change two-phase loop ApplyChange ran
// before it became the one-change SyncPass, kept as the oracle of
// TestApplyChangeMatchesReferenceLoop: every live view is visited, every
// affected view pays its own rewriting search (no twin sharing), the change
// lands once between the phases, and a Version is published on every call.
func referenceApplyChange(ctx context.Context, w *Warehouse, c space.Change) ([]SyncResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Synchronization and ranking run against the *pre-change* MKB: the
	// PC constraints mentioning the deleted component are exactly what the
	// quality estimator needs, and the MKB Evolver prunes them once the
	// change lands.
	snap := w.TakeSnapshot()
	type pending struct {
		v        *VersionView
		next     *VersionView
		mt       *maintain.Maintainer
		res      SyncResult
		affected bool
	}
	live := w.Acquire().Views()
	work := make([]*pending, 0, len(live))
	for _, v := range live {
		work = append(work, &pending{v: v, res: SyncResult{ViewName: v.Name}})
	}

	// Phase 1: per-view synchronize + rank, concurrently over the shared
	// pre-change state.
	err := conc.ForEachCtx(ctx, len(work), w.cfg.Workers, func(i int) error {
		p := work[i]
		p.affected = synchronize.Affected(p.v.Def, c)
		if !p.affected {
			return nil
		}
		ranking, err := w.rankFor(ctx, p.v.Def, c, snap)
		if err != nil {
			return err
		}
		if ranking == nil {
			return nil
		}
		p.res.Ranking = ranking
		p.res.Chosen = ranking.Best()
		return nil
	})
	if err != nil {
		return nil, err
	}

	// The base change lands exactly once, between the two phases. This is
	// the pass's commit point: from here on the pass completes regardless
	// of ctx, and the check just before it is the last chance for a
	// cancellation to abort the pass cleanly (a cancel that fired inside
	// the final phase-1 ranking is caught here, not swallowed).
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := w.Space.ApplyChange(c); err != nil {
		return nil, err
	}
	w.cfg.Observer.OnChange(c)

	// Phase 2: adopt or decease, concurrently — re-materialization reads
	// the shared post-change space, but each worker writes only its own
	// pending entry.
	// Deliberately past cancellation: see the commit-point note above.
	pctx := postCommit(ctx)
	err = conc.ForEach(len(work), w.cfg.Workers, func(i int) error {
		p := work[i]
		if !p.affected {
			return nil
		}
		if p.res.Chosen == nil {
			p.next = w.decease(p.v, fmt.Sprintf("%s: no legal rewriting", c), c)
			p.res.Deceased = true
			return nil
		}
		// One search per view: every view materializes its own extent.
		s := &search{v: p.v, c: c, ranking: p.res.Ranking}
		var err error
		if p.next, p.mt, err = w.adopt(pctx, p.v, s); err != nil {
			return err
		}
		w.cfg.Observer.OnAdopt(p.v.Name, p.res.Chosen)
		return nil
	})
	// Collect even when an adopt failed: other workers may have adopted or
	// deceased their views.
	var changed []*VersionView
	for _, p := range work {
		if p.next == nil {
			continue
		}
		changed = append(changed, p.next)
		if p.mt != nil {
			w.maintainers[p.v.Name] = p.mt
		} else {
			delete(w.maintainers, p.v.Name)
		}
	}
	// Publish the post-pass state as a new immutable version — the pass's
	// commit becomes visible to lock-free readers only here, all at once,
	// so a reader can never observe a half-applied pass. Published even
	// when an adopt failed: the change landed, and whatever the workers
	// committed is the warehouse's consistent current state.
	w.publish(changed...)
	if err != nil {
		return nil, err
	}

	results := make([]SyncResult, len(work))
	for i, p := range work {
		results[i] = p.res
	}
	return results, nil
}

// replayWarehouse materializes one side of the differential over h, with
// a few rows in every relation so adopted extents are not empty.
func replayWarehouse(t *testing.T, h *scenario.ChurnHistory, topK int, enumerate bool, obs Observer) *Warehouse {
	t.Helper()
	sp, err := h.BuildSpace()
	if err != nil {
		t.Fatal(err)
	}
	if err := scenario.Populate(sp, 12); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.TopK = topK
	cfg.Observer = obs
	cfg.DropVariants = enumerate
	w := New(sp, cfg)
	for _, def := range h.Views() {
		if _, err := w.RegisterView(context.Background(), def); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// TestApplyChangeMatchesReferenceLoop replays the 110 randomized churn
// histories of evolve's TestSessionReplayParity (same generator, same seeds:
// TopK 0/1–3, drop-variants on/off, decease pressure on/off) through the
// retained reference loop and through ApplyChange, and requires the two to
// be indistinguishable change by change: the same result rows (including the
// empty rows of unaffected views), the same rankings and QC scores, the same
// adopted definitions and History strings, the same survivors, and one
// published Version per change on both sides.
func TestApplyChangeMatchesReferenceLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var adoptions, deceases, shared int
	for trial := 0; trial < 110; trial++ {
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
		h, err := scenario.Churn(p)
		if err != nil {
			t.Fatal(err)
		}
		ref := replayWarehouse(t, h, topK, enumerate, nil)
		metrics := &MetricsObserver{}
		got := replayWarehouse(t, h, topK, enumerate, metrics)

		for i, c := range h.Changes {
			label := fmt.Sprintf("trial %d (seed %d, topK %d, enum %v) change %d (%s)", trial, p.Seed, topK, enumerate, i, c)
			refSeq, gotSeq := ref.Acquire().Seq(), got.Acquire().Seq()
			want, err := referenceApplyChange(context.Background(), ref, c)
			if err != nil {
				t.Fatalf("%s: reference: %v", label, err)
			}
			rows, err := got.ApplyChange(context.Background(), c)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if d, e := got.Acquire().Seq()-gotSeq, ref.Acquire().Seq()-refSeq; d != e || d != 1 {
				t.Fatalf("%s: published %d versions, reference %d, want 1", label, d, e)
			}
			if len(rows) != len(want) {
				t.Fatalf("%s: %d rows, reference %d", label, len(rows), len(want))
			}
			affected := 0
			for k, r := range rows {
				w := want[k]
				if r.ViewName != w.ViewName || r.Deceased != w.Deceased ||
					(r.Ranking == nil) != (w.Ranking == nil) || (r.Chosen == nil) != (w.Chosen == nil) {
					t.Fatalf("%s: row %d diverged\nref: %+v\ngot: %+v", label, k, w, r)
				}
				if r.Deceased {
					deceases++
					affected++
				}
				if r.Ranking == nil {
					continue
				}
				affected++
				adoptions++
				qcs := func(res SyncResult) []float64 {
					out := []float64{res.Chosen.QC}
					for _, cand := range res.Ranking.Candidates {
						out = append(out, cand.QC)
					}
					return out
				}
				if a, b := qcs(r), qcs(w); !slices.Equal(a, b) {
					t.Fatalf("%s: view %s QC scores diverged\nref: %v\ngot: %v", label, r.ViewName, b, a)
				}
				if a, b := r.Chosen.Rewriting.View.Signature(), w.Chosen.Rewriting.View.Signature(); a != b {
					t.Fatalf("%s: view %s chose a different rewriting\nref: %s\ngot: %s", label, r.ViewName, b, a)
				}
			}
			shared += affected
			if r, g := ref.Acquire().ViewNames(), got.Acquire().ViewNames(); !slices.Equal(g, r) {
				t.Fatalf("%s: survivors diverged\nref: %v\ngot: %v", label, r, g)
			}
			checkExtents(t, label+" reference", ref)
			checkExtents(t, label, got)
		}
		shared -= int(metrics.Syncs())

		// Deceased views stay reachable through View; compare them too.
		for _, def := range h.Views() {
			rv, gv := ref.Acquire().View(def.Name), got.Acquire().View(def.Name)
			if rv.Deceased != gv.Deceased || rv.Def.Signature() != gv.Def.Signature() || !slices.Equal(rv.History, gv.History) {
				t.Fatalf("trial %d: view %s ended differently\nref: %v %s %q\ngot: %v %s %q", trial, def.Name,
					rv.Deceased, rv.Def.Signature(), rv.History, gv.Deceased, gv.Def.Signature(), gv.History)
			}
		}
	}
	// Non-vacuity: the corpus exercised adoption, decease, and twin sharing
	// (affected views beyond the searches the new loop ran).
	if adoptions == 0 || deceases == 0 || shared <= 0 {
		t.Fatalf("vacuous corpus: %d adoptions, %d deceases, %d twin-shared searches", adoptions, deceases, shared)
	}
	t.Logf("%d adoptions, %d deceases, %d twin-shared searches", adoptions, deceases, shared)
}

// checkExtents is the adoption oracle: every live view's extent carries the
// view's own name and equals, by row checksum and card, exec.Evaluate of
// its adopted definition over the current space.
func checkExtents(t *testing.T, label string, w *Warehouse) {
	t.Helper()
	for _, v := range w.Acquire().Views() {
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
