package core

import "math"

// Query-route costing: the serving-side reuse of the QC cost model. The MV
// router prices each candidate answer plan — scan a view's materialized
// extent (plus residual operators) versus recompute from base relations —
// in the same page-I/O currency Section 6 prices maintenance in, so "is the
// view worth consulting for this query" and "is the view worth maintaining"
// are decided by one model.

// ScanPages returns the sequential I/O cost, in page fetches, of reading
// rows tuples: ⌈rows/bfr⌉, Equation 32's full-scan term with the model's
// blocking factor. Non-positive row counts cost nothing.
func (cm CostModel) ScanPages(rows int) float64 {
	if rows <= 0 {
		return 0
	}
	return math.Ceil(float64(rows) / float64(cm.Bfr()))
}

// RoutePages converts a physical plan's per-operator estimated output
// cardinalities into a page cost: every operator is charged a sequential
// scan over its estimated output (ScanPages), so a route's price is the
// page traffic of producing all its intermediate results. The router
// compares RoutePages of a view-backed plan (extent scan plus residual
// filter/project) against the base-relation plan and picks the cheaper
// route; pipelines over small maintained extents win against multi-way
// base joins exactly as the paper's model prices smaller rewritten views
// cheaper to maintain.
func (cm CostModel) RoutePages(rowCounts []int) float64 {
	total := 0.0
	for _, n := range rowCounts {
		total += cm.ScanPages(n)
	}
	return total
}
