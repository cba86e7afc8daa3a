// Package experiments contains one driver per experiment in the paper's
// Section 7, each regenerating the corresponding table or figure series
// from the analytic QC-Model (and, where applicable, the maintenance
// simulator). Every driver returns plain result structs plus a String
// rendering matching the paper's layout.
//
// Paper mapping:
//
//   - RunExp1 — Experiment 1 (Figure 12): view life spans under successive
//     capability changes for both attribute-weight settings.
//   - RunExp2 — Experiment 2 (Figure 13): average cost factors per update
//     as the view's relations spread over 1..6 sites.
//   - RunExp3 — Experiment 3 (Figure 14): bytes transferred per relation
//     distribution at three join selectivities.
//   - RunExp4 — Experiment 4 (Table 4, Figure 15): QC versus substitute
//     cardinality for the three quality/cost trade-off cases.
//   - RunExp5 — Experiment 5 (Tables 5 and 6, Figure 16): workload models
//     M1 and M3.
//   - RunHeuristics — the Section 7.6 rule-of-thumb ablations.
//
// `go run ./cmd/experiments` runs every driver and renders the paper's
// tables and figures; the golden tests pin each report.
package experiments
