// Package maintain executes the paper's incremental view maintenance
// procedure (Algorithm 1, Section 6.1) against the simulated information
// space, measuring the messages exchanged, bytes transferred, and I/O
// operations actually incurred.
//
// It serves two purposes: keeping materialized view extents up to date
// after base-data updates (the View Maintainer component of Figure 1), and
// cross-validating the analytic cost model of internal/core — the measured
// Metrics of a real update should track the closed-form CF_M / CF_T /
// CF_I/O factors of Sections 6.2–6.4 under the same scenario. Scans are
// priced with the cost model's blocking factor (core.CostModel.Bfr), so
// measured I/O and the analytic CF_I/O read the same bfr.
//
// Paper mapping: Algorithm 1's site-by-site delta propagation, including
// the update-originating source's local join (n_1) and the visit order the
// cost factors assume. A step's inserts and deletes travel as one signed
// bag (a ±1 column the sites never see), so every hop runs one plan. The
// clauses of every hop are placed by internal/plan, the planner that
// compiles full extents: inside one site the next hop is the first
// relation a pending equi-clause connects to what the delta has bound
// (plan.Connected), so every hop is the index retrieval per delta tuple
// Appendix A prices, and a cross product is formed only where the view
// asks for one. That placement, the site and hop order, the operators and
// the fold's positions are compiled once per seed binding, on its first
// step, into a program that later batches only bind (Compiles counts the
// compiles); it recompiles when a FROM relation's schema object or home
// changes. The counting fold lands through the extent's WithDelta: a
// row in the extent has one derivation unless a set of multi-derivation
// rows says more, so a batch costs what it changes in the view, not the
// view's size. Like Collapse's pending sets, it is a relation.TupleSet: no
// write builds a key string.
package maintain
