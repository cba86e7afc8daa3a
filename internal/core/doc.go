// Package core implements the paper's primary contribution: the QC-Model,
// an efficiency model that ranks non-equivalent legal rewritings of a view
// by combining a quality measure (degree of divergence from the original
// view, Section 5) with a cost measure (long-term incremental view
// maintenance cost, Section 6) into a single score (Equation 26):
//
//	QC(Vi) = 1 − (ρ_quality·DD(Vi) + ρ_cost·COST*(Vi))
//
// Paper mapping, file by file:
//
//   - params.go — the user-settable weights and trade-off parameters
//     (w1/w2 of Equation 12, ρ pairs of Equations 15, 20, and 26, and the
//     unit prices of Equation 24), with the paper's defaults.
//   - quality.go — the quality dimension: interface quality Q_V
//     (Equation 12), attribute divergence DD_attr, extent divergence
//     DD_ext (Equations 13–17), and total divergence DD (Equation 20),
//     plus exact extent measurement per Definition 1.
//   - estimate.go — the analytic extent-size estimator of Section 5.4.3,
//     which approximates |V|, |Vi|, and the overlap |V ∩≈ Vi| from MKB
//     cardinalities and PC constraints (Figures 9 and 10).
//   - cost.go — the cost dimension: the three cost factors CF_M, CF_T,
//     and CF_I/O of Sections 6.2–6.4 with Appendix A's I/O bounds, over
//     declarative UpdateScenario descriptions.
//   - workload.go — the workload models M1–M4 of Section 6.6 and
//     Equation 25's min-max cost normalization.
//   - model.go — Candidate/Ranking and the batch Rank pipeline of the
//     paper's enumerate-then-rank presentation (the experiments, and the
//     oracle the warehouse's search is tested against).
//   - topk.go — the streaming side the warehouse's cost-bounded
//     rewriting search runs on: per-candidate scoring against a fixed
//     CostNormalizer, the bounded TopKRanker heap, and the VariantQCBound
//     branch-and-bound upper bound for drop-variant spectra.
package core
