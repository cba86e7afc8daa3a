package core

import (
	"container/heap"
	"math"
	"sort"

	"repro/internal/esql"
)

// This file holds the streaming side of the QC-Model: scoring one candidate
// at a time against a fixed cost normalization, a bounded top-K heap that
// stands in for sorting the full slice, and the branch-and-bound upper
// bound that lets the rewriting search discard the exponential drop-variant
// spectrum without materializing it.
//
// The soundness of the whole scheme rests on one observation about drop
// variants (rewritings that differ from a base rewriting only by dropping
// additional dispensable SELECT items): the FROM and WHERE clauses — and
// hence the extent estimate, the update scenario, and the raw maintenance
// cost — are identical to the base's. Only DD_attr changes, monotonically in
// the total quality weight of the dropped items. Therefore (a) min-max cost
// normalization over the base rewritings alone equals normalization over the
// full exhaustive candidate set, and (b) a base's best drop-variant QC is a
// closed-form function of the lightest droppable weight.

// CostNormalizer applies Equation 25's min-max normalization against a fixed
// candidate population. Capturing the population's min and max once lets
// candidates be scored one at a time (streamed) instead of in a single batch.
type CostNormalizer struct {
	// Min and Max are the population's raw-cost extremes.
	Min, Max float64
	// ok distinguishes an empty population (normalize everything to 0).
	ok bool
}

// NewCostNormalizer captures the min and max of a raw-cost population.
func NewCostNormalizer(costs []float64) CostNormalizer {
	if len(costs) == 0 {
		return CostNormalizer{}
	}
	n := CostNormalizer{Min: costs[0], Max: costs[0], ok: true}
	for _, c := range costs[1:] {
		if c < n.Min {
			n.Min = c
		}
		if c > n.Max {
			n.Max = c
		}
	}
	return n
}

// Normalize maps a raw cost into [0, 1]. When the population is empty or all
// costs are equal it returns 0, matching Equation 25's convention of
// rewarding ties.
func (n CostNormalizer) Normalize(cost float64) float64 {
	if !n.ok || n.Max == n.Min {
		return 0
	}
	return clamp01((cost - n.Min) / (n.Max - n.Min))
}

// PrepareCandidate fills the workload-scaled raw-cost side of a candidate's
// derived measures: DD_attr, DD_ext, DD, the cost factors, the update count,
// and RawCost. It is the per-candidate half of Rank; the population-relative
// half (NormCost, QC) needs a CostNormalizer and is done by FinishCandidate.
func PrepareCandidate(orig *esql.ViewDef, c *Candidate, t Tradeoff, cm CostModel) {
	c.DDAttr = DDAttr(orig, c.Rewriting.View, t)
	c.DDExt = DDExt(c.Sizes, t)
	c.DD = DD(c.DDAttr, c.DDExt, t)
	c.Factors = cm.Factors(c.Scenario)
	w := c.Workload
	if w.Model == 0 {
		w = Workload{Model: M4, U: 1}
	}
	c.Updates = w.Updates(c.Scenario)
	c.RawCost = c.Factors.Scale(c.Updates).Total(t)
}

// FinishCandidate fills NormCost and the final QC score (Equation 26) from a
// prepared candidate and the population's cost normalizer.
func FinishCandidate(c *Candidate, norm CostNormalizer, t Tradeoff) {
	c.NormCost = norm.Normalize(c.RawCost)
	c.QC = clamp01(1 - (t.RhoQuality*c.DD + t.RhoCost*c.NormCost))
}

// VariantQCBound returns an upper bound on the QC score of any drop-variant
// of the prepared-and-finished base candidate that additionally drops at
// least addedWeight worth of interface quality (Q_V units, Equation 12).
// Because a drop-variant shares the base's FROM/WHERE clauses, its DD_ext and
// normalized cost equal the base's, and its DD_attr is the base's shifted by
// the dropped weight — so the bound is exact when addedWeight is the
// variant's actual dropped quality weight, and an upper bound whenever
// addedWeight underestimates it (e.g. the lightest frontier weight of a
// best-first variant stream).
func VariantQCBound(orig *esql.ViewDef, base *Candidate, addedWeight float64, t Tradeoff) float64 {
	qv := InterfaceQuality(orig, t)
	ddAttr := 0.0
	if qv > 0 {
		qBase := InterfaceQuality(base.Rewriting.View, t)
		ddAttr = clamp01((qv - qBase + addedWeight) / qv)
	}
	dd := clamp01(t.RhoAttr*ddAttr + t.RhoExt*base.DDExt)
	return clamp01(1 - (t.RhoQuality*dd + t.RhoCost*base.NormCost))
}

// rankedCandidate pairs a scored candidate with its cached view signature,
// the deterministic tie-break of the bounded ranking.
type rankedCandidate struct {
	cand *Candidate
	sig  string
}

// worseThan orders candidates worst-first: lower QC is worse; equal QC
// breaks ties by larger signature, so the retained top-K set is a
// deterministic function of the candidate population, independent of the
// order in which the search discovered them.
func (r rankedCandidate) worseThan(o rankedCandidate) bool {
	if r.cand.QC != o.cand.QC {
		return r.cand.QC < o.cand.QC
	}
	return r.sig > o.sig
}

// candidateHeap is a worst-at-root min-heap of rankedCandidates.
type candidateHeap []rankedCandidate

func (h candidateHeap) Len() int            { return len(h) }
func (h candidateHeap) Less(i, j int) bool  { return h[i].worseThan(h[j]) }
func (h candidateHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *candidateHeap) Push(x interface{}) { *h = append(*h, x.(rankedCandidate)) }
func (h *candidateHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// TopKRanker keeps the K best candidates seen so far by QC score in a
// bounded heap — O(log K) per candidate instead of sorting the full slice —
// and exposes the current K-th best score for branch-and-bound pruning.
type TopKRanker struct {
	k    int
	heap candidateHeap
}

// NewTopKRanker creates a ranker retaining the k best candidates. k <= 0
// means unbounded: every candidate is retained and the ranker is never Full,
// so nothing is pruned against it — the one meaning a zero TopK has at every
// layer.
func NewTopKRanker(k int) *TopKRanker {
	if k <= 0 {
		k = math.MaxInt
	}
	return &TopKRanker{k: k}
}

// Consider offers a finished (scored) candidate. It reports whether the
// candidate entered the current top K.
func (r *TopKRanker) Consider(c *Candidate) bool {
	rc := rankedCandidate{cand: c, sig: c.Rewriting.View.Signature()}
	if len(r.heap) < r.k {
		heap.Push(&r.heap, rc)
		return true
	}
	if !r.heap[0].worseThan(rc) {
		return false
	}
	r.heap[0] = rc
	heap.Fix(&r.heap, 0)
	return true
}

// Full reports whether K candidates have been retained, i.e. whether
// WorstQC is a meaningful pruning threshold.
func (r *TopKRanker) Full() bool { return len(r.heap) >= r.k }

// WorstQC returns the QC score of the K-th best retained candidate — the
// score a new candidate must strictly beat (up to the signature tie-break)
// to enter the ranking. It is only meaningful when Full.
func (r *TopKRanker) WorstQC() float64 {
	if len(r.heap) == 0 {
		return 0
	}
	return r.heap[0].cand.QC
}

// Ranking extracts the retained candidates as a Ranking sorted by QC
// descending, ties by ascending signature.
func (r *TopKRanker) Ranking(t Tradeoff, cm CostModel) *Ranking {
	out := make([]rankedCandidate, len(r.heap))
	copy(out, r.heap)
	sort.Slice(out, func(i, j int) bool { return out[j].worseThan(out[i]) })
	cands := make([]*Candidate, len(out))
	for i, rc := range out {
		cands[i] = rc.cand
	}
	return &Ranking{Tradeoff: t, CostModel: cm, Candidates: cands}
}
