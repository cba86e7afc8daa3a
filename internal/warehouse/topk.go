package warehouse

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/esql"
	"repro/internal/space"
	"repro/internal/synchronize"
)

// qualityWeight is the DropWeight the warehouse installs on its
// synchronizer: the QC quality weight (Equation 12) of one dispensable
// SELECT item under the warehouse's current trade-off parameters (read
// under the knob mutex, so a concurrent SetTradeoff never tears one read).
// With this weight the drop-variant stream is ordered by nonincreasing
// achievable QC, which makes the top-K search's pruning bound exact and
// keeps the exhaustive and pruned paths enumerating the same
// MaxDropVariants-capped universe. The top-K search itself uses
// dropWeightFor over its knob snapshot instead, pinning the whole pass to
// one trade-off state.
func (w *Warehouse) qualityWeight(s esql.SelectItem) float64 {
	return dropWeightFor(w.Tradeoff())(s)
}

// dropWeightFor builds the QC quality drop-weight for one fixed trade-off
// state — the snapshot-pinned form of qualityWeight.
func dropWeightFor(t core.Tradeoff) synchronize.DropWeight {
	return func(s esql.SelectItem) float64 {
		switch s.Category() {
		case 1:
			return t.W1
		case 2:
			return t.W2
		}
		return 0
	}
}

// SearchTopK runs the lazy, cost-bounded top-K rewriting search for view v
// under change c: base rewritings are generated eagerly (they are few),
// scored, and seeded into a bounded top-K ranker; each base's exponential
// drop-variant spectrum is then streamed best-first and branch-and-bounded
// against the current K-th best QC score, so variants that cannot enter the
// ranking are never even materialized. The returned ranking holds at most k
// candidates and — modulo candidates tied on QC at the cut — matches the
// first k entries of the exhaustive enumerate-then-rank path
// (Synchronize + RankRewritings) exactly, because
//
//   - a drop-variant shares its base's FROM/WHERE clauses, hence its extent
//     estimate, update scenario, and raw maintenance cost, so min-max cost
//     normalization over the bases alone equals normalization over the full
//     candidate set, and
//   - a variant's DD_attr grows monotonically with its dropped quality
//     weight, which is exactly the stream order.
//
// An empty ranking means the view has no legal rewriting (deceased). The
// trade-off parameters and cost model come from the pass's knob snapshot;
// ctx is polled once per variant pulled, so cancelling aborts a wide view's
// exponential spectrum walk promptly with ctx.Err().
func (w *Warehouse) SearchTopK(ctx context.Context, v *View, c space.Change, snap *Snapshot, k int) (*core.Ranking, error) {
	t, cm := snap.tradeoff, snap.cost
	if err := t.Validate(); err != nil {
		return nil, err
	}
	sy := w.Synchronizer
	bases, err := sy.BaseRewritings(v.Def, c)
	if err != nil {
		return nil, err
	}
	if len(bases) == 0 {
		return &core.Ranking{Tradeoff: t, CostModel: cm}, nil
	}

	// Score the bases against the pre-change snapshot. Their raw costs
	// define the population's min-max normalization (see above).
	est := core.NewEstimator(w.Space.MKB())
	baseCands := make([]*core.Candidate, len(bases))
	costs := make([]float64, len(bases))
	for i, rw := range bases {
		cand := &core.Candidate{
			Rewriting: rw,
			Sizes:     est.Sizes(v.Def, rw, snap.cards),
			Scenario:  w.ScenarioFor(rw.View, snap),
		}
		core.PrepareCandidate(v.Def, cand, t, cm)
		baseCands[i] = cand
		costs[i] = cand.RawCost
	}
	norm := core.NewCostNormalizer(costs)
	ranker := core.NewTopKRanker(k)
	for _, cand := range baseCands {
		core.FinishCandidate(cand, norm, t)
		ranker.Consider(cand)
	}
	if !sy.EnumerateDropVariants || !synchronize.Affected(v.Def, c) {
		return ranker.Ranking(t, cm), nil
	}

	// Stream each base's drop-variants best-first, pruning against the
	// K-th best score. PeekWeight bounds the whole remaining stream of a
	// base, so one failed bound check retires the base's entire spectrum.
	//
	// The bound is only valid when the stream weight underestimates (or
	// equals) the dropped quality weight per item. The stream is therefore
	// ordered by the snapshot's trade-off state (dropWeightFor over the
	// pass snapshot, via VariantsWeighted), never by live knob reads — a
	// concurrent tuner cannot reorder a stream mid-walk. A nil
	// VariantWeight means the synchronizer was replaced after New and its
	// exhaustive path streams in uniform order, which overestimates quality
	// weights below 1; then, to keep parity with that exhaustive universe,
	// the whole capped universe is streamed into the bounded heap instead
	// (still correct, just without early exit).
	prune := sy.VariantWeight != nil
	wf := synchronize.DropWeight(nil)
	if prune {
		wf = dropWeightFor(t)
	}
	seen := make(map[string]bool, len(bases))
	for _, rw := range bases {
		seen[rw.View.Signature()] = true
	}
	for i, base := range bases {
		baseCand := baseCands[i]
		it := sy.VariantsWeighted(base, wf)
		for {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			weight, ok := it.PeekWeight()
			if !ok {
				break
			}
			if prune && ranker.Full() && core.VariantQCBound(v.Def, baseCand, weight, t) <= ranker.WorstQC() {
				break
			}
			variant, ok := it.Next()
			if !ok {
				break
			}
			sig := variant.View.Signature()
			if seen[sig] {
				continue
			}
			seen[sig] = true
			// The variant inherits the base's extent estimate and update
			// scenario — identical FROM/WHERE — so neither is recomputed.
			cand := &core.Candidate{
				Rewriting: variant,
				Sizes:     baseCand.Sizes,
				Scenario:  baseCand.Scenario,
			}
			core.PrepareCandidate(v.Def, cand, t, cm)
			core.FinishCandidate(cand, norm, t)
			ranker.Consider(cand)
		}
	}
	return ranker.Ranking(t, cm), nil
}

// rankFor runs one rewriting search of a pass: the lazy top-K search when
// the snapshotted TopK knob is set, the exhaustive enumerate-then-rank
// reference path otherwise. A nil ranking means the view has no legal
// rewriting. It only reads shared state — the MKB, the snapshot, the view's
// definition — so SyncPass fans searches out over a worker pool and lets
// structurally identical views share one. OnSync fires once per call;
// cancelling ctx aborts the search with ctx.Err().
func (w *Warehouse) rankFor(ctx context.Context, v *View, c space.Change, snap *Snapshot) (*core.Ranking, error) {
	start := time.Now()
	ranking, err := w.searchFor(ctx, v, c, snap)
	if err != nil {
		return nil, err
	}
	obs := w.obs()
	obs.OnPhase(PhaseSync, time.Since(start))
	obs.OnSync(v.Def.Name, ranking)
	return ranking, nil
}

func (w *Warehouse) searchFor(ctx context.Context, v *View, c space.Change, snap *Snapshot) (*core.Ranking, error) {
	if snap.topK > 0 {
		ranking, err := w.SearchTopK(ctx, v, c, snap, snap.topK)
		if err != nil {
			return nil, err
		}
		if len(ranking.Candidates) == 0 {
			return nil, nil
		}
		return ranking, nil
	}
	// Pin the exhaustive path's drop-variant enumeration to the snapshot's
	// trade-off state, exactly as the top-K path does: the installed
	// VariantWeight reads the live Tradeoff per item, which a concurrent
	// SetTradeoff could tear mid-enumeration (reordering the best-first
	// stream and shifting the MaxDropVariants-capped universe). A nil
	// VariantWeight (synchronizer replaced after New) keeps the uniform
	// order, matching SearchTopK's parity rule.
	var wf synchronize.DropWeight
	if w.Synchronizer.VariantWeight != nil {
		wf = dropWeightFor(snap.tradeoff)
	}
	rws, err := w.Synchronizer.SynchronizeWeighted(ctx, v.Def, c, wf)
	if err != nil {
		return nil, err
	}
	if len(rws) == 0 {
		return nil, nil
	}
	return w.RankRewritings(v, rws, snap)
}
