// Package plan compiles qualified E-SQL view definitions into physical
// operator trees and executes them:
//
//   - Scan — a base relation rebound under its qualified schema, no copy
//   - Filter — pushed-down predicates, bound to schema positions
//   - HashJoin — composite equi-keys through a relation.KeyIndex, other
//     clauses over the pair as a residual; NestedLoop where no equi-key
//     exists
//   - Project — narrowing and renaming to the view interface
//   - Dedup — set-semantics duplicate elimination at the root, elided
//     where the bind proves the projection duplicate-free
//
// The join order is greedy over MKB cardinalities: the smallest input
// first, then an equi-connected input before a theta-connected one before
// a cross product. The clause placement functions (Pending, TakeBound,
// Connected, PlaceHop) also place delta maintenance's hops (Algorithm 1),
// which run a BatchScan through the same HashJoin with ExecuteBag.
//
// Compiling reads a Catalog: Compile adapts a live space, CompileCatalog
// takes any other, such as a published warehouse version. It is two steps.
// The first places the clauses, orders the joins and binds the predicate
// programs into a template that holds no relation and leaves each WHERE
// constant a slot; the second binds the template to relations, constants
// and estimates. A Memo keeps one template per query shape and reuses it
// while the inputs' estimates keep its join order, so a shape seen before
// only binds. Memo.Prepare stops between the two: a Prepared prices the
// plan (EstRowCounts, compile's arithmetic over the current estimates)
// without binding it. Compiles counts the templates compiled.
//
// # Execution
//
// The operator tree is the executor, batch-at-a-time over
// relation.ColumnBatch inputs; its reference is exec.EvaluateNaive over the
// relation algebra, which shares no code with this package. Filters run
// typed kernels producing selection vectors. A hash join whose right input
// is a bare Scan probes that base relation's memoized key index
// (Relation.KeyIndex: built on first use, forked by every WithDelta), so a
// repeated read over unchanged relations builds no table; any other join
// indexes its smaller input with relation.IndexRows, the same index type.
// A probe hashes and looks up a block of rows at a time (HashRows,
// ProbeBlock), then confirms each candidate pair.
// Joins emit row-index pairs, and only the Dedup root gathers output
// columns, into a columnar-born extent (late materialization). Duplicates
// are eliminated once, there, which the set semantics of the extent makes
// equivalent to per-operator dedup, unless a bind proves there are none
// (dupFree). Grouping uses the strict typed keys of Column.Hash and KeyEqual (Int(1) ≠ Float(1)); predicates mirror Equal/Compare
// (numeric widening, NaN and negative zero).
// Cancellation is polled every vecChunk rows (and probe candidates): a
// cancelled execution
// returns ctx.Err() and no partial extent. Execution state lives on the
// stack, so a plan may run on many goroutines at once while its relations
// are not mutated.
//
// Paper mapping: the paper assumes set-semantics SELECT-FROM-WHERE
// evaluation (Section 5.3) without prescribing an engine; this package is
// the reproduction's engine.
package plan
