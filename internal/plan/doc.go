// Package plan compiles qualified E-SQL view definitions into explicit
// physical operator trees and executes them. It replaces the executor's
// original ad-hoc left-to-right loop with a real (if small) planner:
//
//   - Scan      — base relation access with zero-copy column re-binding
//     (Relation.Rebind + Schema.Qualify instead of a full tuple copy)
//   - Filter    — pushed-down predicates, bound to schema positions
//     (relation.Bind) at plan time
//   - HashJoin  — composite-key hash join for equi-join clauses, with any
//     non-equi clauses over the same pair applied as a residual
//   - NestedLoop — the join for pairs with no usable equi-key
//   - Project   — projection and renaming to the view interface
//   - Dedup     — set-semantics duplicate elimination at the plan root
//
// Delta maintenance adds two operators the planner never emits: BatchScan
// (an in-memory delta batch as a leaf) and IndexLookup (a probe of a base
// relation's key index), run through ExecuteBag without the Dedup root.
//
// Join order is chosen by a greedy heuristic over MKB cardinalities: the
// smallest estimated input is placed first, and each step prefers a
// relation connected to the bound set by an equi-join clause (avoiding
// cross products) before falling back to the smallest remaining input.
//
// # Execution
//
// The operator tree is the executor: every operator runs batch-at-a-time
// over relation.ColumnBatch inputs, and there is no other engine. The
// reference it is differentially tested against is exec.EvaluateNaive
// over the relation algebra, which shares no code with this package.
//
//   - filters run typed kernels over column vectors, producing selection
//     vectors (relation.Sel) instead of copying tuples;
//   - hash joins build an open-addressing table over the smaller side's
//     key columns and emit (build, probe) row-index pairs;
//   - all operators pass around row indices into the leaf batches (late
//     materialization) — only the Dedup root gathers output columns and
//     constructs the extent, columnar-born via relation.FromColumns, so
//     tuple boxing is deferred until someone actually reads tuples.
//
// Duplicates are eliminated once, at the Dedup root, which the set
// semantics of the final extent makes equivalent to per-operator dedup.
// Join/dedup grouping uses the strict typed-key semantics of Column.Hash
// and KeyEqual (Int(1) ≠ Float(1)), while predicate kernels mirror Equal/Compare
// (numeric widening, the NaN and negative-zero rules); the differential
// and fuzz suites pin both. Cancellation is polled at batch boundaries —
// every vecChunk rows inside kernels and loops — preserving the
// commit-point rule: a cancelled execution returns ctx.Err() and no
// partial extent.
//
// Compilation reads its data source through the Catalog interface
// (relation resolution, cardinality estimates, default selectivities):
// Compile adapts a live space, CompileCatalog accepts anything else — in
// particular the warehouse's published versions compile plans against
// their immutable relation snapshots, which is what makes per-version
// plan caching safe. Plan execution keeps all state on the stack, so one
// compiled plan may be executed by any number of goroutines concurrently
// as long as the scanned relations are not mutated.
//
// Paper mapping: the paper assumes set-semantics SELECT-FROM-WHERE
// evaluation (Section 5.3) without prescribing an engine; this package is
// the reproduction's engine, sized for the experiments' 10^3–10^4-tuple
// relations but structured like a production planner so further operators
// can slot in.
package plan
