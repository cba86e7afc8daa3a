package warehouse

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/esql"
	"repro/internal/space"
	"repro/internal/synchronize"
)

// dropWeightFor builds the DropWeight New sets on the warehouse's
// synchronizer: the QC quality weight (Equation 12) of one dispensable SELECT
// item under trade-off t. With this weight the drop-variant stream is ordered
// by nonincreasing achievable QC, which makes SearchTopK's pruning bound
// exact.
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

// SearchTopK is the rewriting search for view definition def under change c:
// base rewritings are generated eagerly (they are few), scored, and seeded
// into a ranker bounded at k; each base's exponential drop-variant spectrum
// is then streamed best-first and branch-and-bounded against the current
// K-th best QC score, so variants that cannot enter the ranking are never
// even materialized. k <= 0 means unbounded: nothing is pruned and the
// result is the full ranking, order for order and bit for bit what
// enumerate-then-rank (Synchronize + core.Rank, the paper's presentation and
// this function's test oracle) produces. A bounded ranking holds at most k candidates and —
// modulo candidates tied on QC at the cut — matches the first k entries of
// the full one exactly, because
//
//   - a drop-variant shares its base's FROM/WHERE clauses, hence its extent
//     estimate, update scenario, and raw maintenance cost, so min-max cost
//     normalization over the bases alone equals normalization over the full
//     candidate set, and
//   - a variant's DD_attr grows monotonically with its dropped quality
//     weight, which is exactly the stream order.
//
// An empty ranking means the view has no legal rewriting (deceased). The
// trade-off parameters and cost model are the warehouse's configuration;
// ctx is polled once per variant pulled, so cancelling aborts a wide view's
// exponential spectrum walk promptly with ctx.Err().
func (w *Warehouse) SearchTopK(ctx context.Context, def *esql.ViewDef, c space.Change, snap *Snapshot, k int) (*core.Ranking, error) {
	t, cm := w.cfg.Tradeoff, w.cfg.Cost
	if err := t.Validate(); err != nil {
		return nil, err
	}
	sy := w.synchronizer
	bases, err := sy.BaseRewritings(def, c)
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
			Sizes:     est.Sizes(def, rw, snap.cards),
			Scenario:  w.ScenarioFor(rw.View, snap),
		}
		core.PrepareCandidate(def, cand, t, cm)
		baseCands[i] = cand
		costs[i] = cand.RawCost
	}
	norm := core.NewCostNormalizer(costs)
	ranker := core.NewTopKRanker(k)
	for _, cand := range baseCands {
		core.FinishCandidate(cand, norm, t)
		ranker.Consider(cand)
	}
	if !sy.EnumerateDropVariants || !synchronize.Affected(def, c) {
		return ranker.Ranking(t, cm), nil
	}

	// Stream each base's drop-variants best-first, pruning against the
	// K-th best score. PeekWeight bounds the whole remaining stream of a
	// base, so one failed bound check retires the base's entire spectrum.
	// The bound is valid because the stream weight is the dropped quality
	// weight itself (dropWeightFor over the configured trade-off).
	seen := make(map[string]bool, len(bases))
	for _, rw := range bases {
		seen[rw.View.Signature()] = true
	}
	for i, base := range bases {
		baseCand := baseCands[i]
		it := sy.Variants(base)
		for {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			weight, ok := it.PeekWeight()
			if !ok {
				break
			}
			if ranker.Full() && core.VariantQCBound(def, baseCand, weight, t) <= ranker.WorstQC() {
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
			core.PrepareCandidate(def, cand, t, cm)
			core.FinishCandidate(cand, norm, t)
			ranker.Consider(cand)
		}
	}
	return ranker.Ranking(t, cm), nil
}

// rankFor runs one rewriting search of a pass, bounded at the configured
// TopK. A nil ranking means the view has no legal rewriting. It only reads
// shared state — the MKB, the snapshot, the view's definition — so SyncPass
// fans searches out over a worker pool and lets structurally identical views
// share one. OnSync fires once per call; cancelling ctx aborts the search
// with ctx.Err().
func (w *Warehouse) rankFor(ctx context.Context, def *esql.ViewDef, c space.Change, snap *Snapshot) (*core.Ranking, error) {
	start := time.Now()
	ranking, err := w.SearchTopK(ctx, def, c, snap, w.cfg.TopK)
	if err != nil {
		return nil, err
	}
	if len(ranking.Candidates) == 0 {
		ranking = nil
	}
	w.cfg.Observer.OnPhase(PhaseSync, time.Since(start))
	w.cfg.Observer.OnSync(def.Name, ranking)
	return ranking, nil
}
