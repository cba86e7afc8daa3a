package eve

// Benchmark harness: one testing.B benchmark per table and figure in the
// paper's evaluation section (Section 7). Each benchmark regenerates its
// artifact through the same driver the `experiments` command uses and
// reports the headline quantity as a custom metric, so `go test -bench=.`
// doubles as the reproduction run.
//
//	BenchmarkExp1Survival       — Figure 12 (view life spans)
//	BenchmarkExp2Sites          — Figure 13 (a,b,c): cost factors vs #sites
//	BenchmarkExp3Distribution   — Figure 14 (a,b,c): bytes vs distribution
//	BenchmarkExp4Cardinality    — Table 4 + Figure 15: QC vs substitute size
//	BenchmarkExp5WorkloadM1     — Table 5
//	BenchmarkExp5WorkloadM3     — Table 6 + Figure 16
//	BenchmarkHeuristics         — Section 7.6 ablations
//
// Micro-benchmarks for the underlying machinery follow (synchronize, rank,
// evaluate, maintain).

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/maintain"
	"repro/internal/relation"
	"repro/internal/scenario"
	"repro/internal/space"
	"repro/internal/synchronize"
)

// BenchmarkExp1Survival regenerates Figure 12: the life span of a view under
// successive capability changes for both weight settings.
func BenchmarkExp1Survival(b *testing.B) {
	var last experiments.Exp1Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunExp1(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	if len(last.Outcomes) == 2 {
		b.ReportMetric(float64(last.Outcomes[0].Lifespan), "lifespan-w1>w2")
		b.ReportMetric(float64(last.Outcomes[1].Lifespan), "lifespan-w1<w2")
	}
}

// BenchmarkExp2Sites regenerates Figure 13: average CF_M, CF_T, CF_I/O per
// update for m = 1..6 sites.
func BenchmarkExp2Sites(b *testing.B) {
	p := scenario.DefaultParams()
	var last experiments.Exp2Result
	for i := 0; i < b.N; i++ {
		last = experiments.RunExp2(p, core.DefaultCostModel())
	}
	for _, row := range last.Rows {
		b.ReportMetric(row.Bytes, "bytes-m"+itoa(row.Sites))
	}
}

// BenchmarkExp3Distribution regenerates Figure 14 for its three join
// selectivities.
func BenchmarkExp3Distribution(b *testing.B) {
	p := scenario.DefaultParams()
	var last experiments.Exp3Result
	for i := 0; i < b.N; i++ {
		for _, js := range []float64{0.001, 0.0022, 0.005} {
			last = experiments.RunExp3(p, js, core.DefaultCostModel())
		}
	}
	if len(last.Rows) > 0 {
		b.ReportMetric(last.Rows[0].Bytes, "bytes-first-group")
	}
}

// BenchmarkExp4Cardinality regenerates Table 4 / Figure 15 (all three
// trade-off cases).
func BenchmarkExp4Cardinality(b *testing.B) {
	var last experiments.Exp4Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunExp4(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	if len(last.Cases) > 0 && len(last.Cases[0].Rows) == 5 {
		b.ReportMetric(last.Cases[0].Rows[2].QC, "QC-V3-case1")
	}
}

// BenchmarkExp5WorkloadM1 regenerates Table 5.
func BenchmarkExp5WorkloadM1(b *testing.B) {
	var last experiments.Exp5Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunExp5(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	if len(last.M1) == 5 {
		b.ReportMetric(last.M1[2].QC, "QC-V3-M1")
	}
}

// BenchmarkExp5WorkloadM3 regenerates Table 6 / Figure 16.
func BenchmarkExp5WorkloadM3(b *testing.B) {
	var last experiments.Exp5Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunExp5(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	if len(last.M3) == 6 {
		b.ReportMetric(last.M3[5].Bytes, "CF_T-m6")
		b.ReportMetric(last.M3[5].Messages, "CF_M-m6")
		b.ReportMetric(last.M3[5].IO, "CF_IO-m6")
	}
}

// BenchmarkHeuristics runs the Section 7.6 ablation checks.
func BenchmarkHeuristics(b *testing.B) {
	var holds int
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunHeuristics(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		holds = 0
		for _, c := range r.Checks {
			if c.Holds {
				holds++
			}
		}
	}
	b.ReportMetric(float64(holds), "heuristics-holding")
}

// --- micro-benchmarks -----------------------------------------------------

// BenchmarkSynchronizeDeleteRelation measures legal-rewriting generation on
// the Experiment 4 MKB (five PC substitutes).
func BenchmarkSynchronizeDeleteRelation(b *testing.B) {
	sp, err := scenario.Exp4Space(1, false)
	if err != nil {
		b.Fatal(err)
	}
	orig := scenario.Exp4View()
	sy := synchronize.New(sp.MKB())
	c := space.Change{Kind: space.DeleteRelation, Rel: "R2"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sy.Synchronize(context.Background(), orig, c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRankRewritings measures QC scoring of the Experiment 4
// candidates.
func BenchmarkRankRewritings(b *testing.B) {
	sp, err := scenario.Exp4Space(1, false)
	if err != nil {
		b.Fatal(err)
	}
	orig := scenario.Exp4View()
	sy := synchronize.New(sp.MKB())
	rws, err := sy.Synchronize(context.Background(), orig, space.Change{Kind: space.DeleteRelation, Rel: "R2"})
	if err != nil {
		b.Fatal(err)
	}
	est := core.NewEstimator(sp.MKB())
	preCards := map[string]int{"R1": 400, "R2": 4000}
	tr, cm := core.DefaultTradeoff(), core.DefaultCostModel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cands := make([]*core.Candidate, 0, len(rws))
		for _, rw := range rws {
			cands = append(cands, &core.Candidate{
				Rewriting: rw,
				Sizes:     est.Sizes(orig, rw, preCards),
				Scenario:  core.UniformScenario([]int{1}, 4000, 100, 0.5),
			})
		}
		if _, err := core.Rank(orig, cands, tr, cm); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateJoinView measures the executor on the travel scenario's
// two-way join.
func BenchmarkEvaluateJoinView(b *testing.B) {
	sp, err := scenario.TravelSpace(7)
	if err != nil {
		b.Fatal(err)
	}
	def := MustParseView(scenario.AsiaCustomerESQL)
	q, err := exec.Qualify(def, sp)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.Evaluate(context.Background(), q, sp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrementalMaintenance measures Algorithm 1 on alternating
// insert/delete updates over the travel join view.
func BenchmarkIncrementalMaintenance(b *testing.B) {
	sp, err := scenario.TravelSpace(7)
	if err != nil {
		b.Fatal(err)
	}
	def := MustParseView(scenario.AsiaCustomerESQL)
	q, err := exec.Qualify(def, sp)
	if err != nil {
		b.Fatal(err)
	}
	ext, err := exec.Evaluate(context.Background(), q, sp)
	if err != nil {
		b.Fatal(err)
	}
	m := maintain.New(sp, q, ext, core.DefaultCostModel().Bfr())
	tuple := relation.Tuple{
		relation.String("Benchy"), relation.String("Tokyo"),
		relation.String("JL"), relation.Int(20270101),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kind := maintain.Insert
		if i%2 == 1 {
			kind = maintain.Delete
		}
		if _, err := m.Apply(context.Background(), maintain.Update{Kind: kind, Rel: "FlightRes", Tuple: tuple}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyticCostFactors measures the closed-form cost model alone.
func BenchmarkAnalyticCostFactors(b *testing.B) {
	cm := core.DefaultCostModel()
	u := core.UpdateAtFirstScenario([]int{2, 2, 2}, 400, 100, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cm.Factors(u)
	}
}

func itoa(n int) string {
	return string(rune('0' + n))
}
