// Package exec evaluates E-SQL view definitions against an information
// space, producing materialized extents. It is the reproduction's Query
// Executor component (Figure 1).
//
// Evaluation is a thin façade over internal/plan: the view is qualified
// (every attribute reference resolved to its FROM binding — Qualify),
// compiled into a physical operator tree (scan / filter / hash-join /
// project / dedup with MKB-driven join ordering), and executed. Explain
// renders the plan for debugging. The original ad-hoc left-to-right
// evaluator is kept as EvaluateNaive, over the relation algebra
// (relation.Join/Select/Project) and sharing no code with the planner: it
// is the one executable specification the planner's single executor is
// held to, fixture by fixture (differential_test.go) and on randomized
// spaces and views (columnar_diff_test.go).
//
// Paper mapping: the paper treats query execution as a black box the View
// Maintainer calls into; this package makes that box concrete so extent
// divergences (Section 5.3) can be measured on real extents rather than
// only estimated.
package exec
