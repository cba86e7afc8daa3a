package eve

// Planner micro-benchmarks: the same multi-way equi-join workload evaluated
// through the physical-plan path (exec.Evaluate) and the original naive
// left-to-right path (exec.EvaluateNaive), over 2-way and 4-way chain joins
// at 1k and 10k base-relation cardinality. Run with
//
//	go test -bench='BenchmarkEvaluate(Planned|Naive)' -benchtime=5x
//
// to see the hash-join + zero-copy-scan win directly in ns/op.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/esql"
	"repro/internal/exec"
	"repro/internal/scenario"
	"repro/internal/space"
)

// benchGrid is the shared (#relations, cardinality) matrix.
var benchGrid = []struct {
	joins int // number of relations in the chain join
	card  int
}{
	{2, 1_000},
	{2, 10_000},
	{4, 1_000},
	{4, 10_000},
}

// chainBench builds the uniform chain-join workload: n relations of the
// given cardinality on one site, values drawn from a domain sized so the
// n-way equi-join result stays moderate, and the ChainView joining them.
func chainBench(b *testing.B, n, card int) (*space.Space, *esql.ViewDef) {
	b.Helper()
	p := scenario.DefaultParams()
	p.NumRelations = n
	p.Card = card
	// Domain 2000 (js = 1/2000) keeps even the 4-way 10k-card join result
	// below ~100k tuples while leaving plenty of hash-join work.
	p.JoinSelectivity = 0.0005
	sp, err := scenario.UniformSpace(p, []int{n})
	if err != nil {
		b.Fatal(err)
	}
	return sp, scenario.ChainView(n, 1000)
}

// baseBytes sums the byte size of every base relation in the space — the
// input volume one evaluation scans, so SetBytes turns ns/op into an MB/s
// throughput figure.
func baseBytes(sp *space.Space) int64 {
	var total int64
	for _, name := range sp.RelationNames() {
		r := sp.Relation(name)
		total += int64(r.Card()) * int64(r.TupleSize())
	}
	return total
}

func benchEvaluate(b *testing.B, eval func(*esql.ViewDef, *space.Space) (interface{ Card() int }, error)) {
	for _, g := range benchGrid {
		b.Run(fmt.Sprintf("joins=%d/card=%d", g.joins, g.card), func(b *testing.B) {
			sp, view := chainBench(b, g.joins, g.card)
			b.ReportAllocs()
			b.SetBytes(baseBytes(sp))
			b.ResetTimer()
			var card int
			for i := 0; i < b.N; i++ {
				ext, err := eval(view, sp)
				if err != nil {
					b.Fatal(err)
				}
				card = ext.Card()
			}
			b.ReportMetric(float64(card), "result-tuples")
		})
	}
}

// BenchmarkEvaluatePlanned measures the physical-plan executor on the chain
// workloads.
func BenchmarkEvaluatePlanned(b *testing.B) {
	benchEvaluate(b, func(v *esql.ViewDef, sp *space.Space) (interface{ Card() int }, error) {
		return exec.Evaluate(context.Background(), v, sp)
	})
}

// BenchmarkEvaluateNaive measures the original left-to-right evaluator on
// the same workloads, for the before/after comparison.
func BenchmarkEvaluateNaive(b *testing.B) {
	benchEvaluate(b, func(v *esql.ViewDef, sp *space.Space) (interface{ Card() int }, error) {
		return exec.EvaluateNaive(v, sp)
	})
}

// BenchmarkApplyChangePipeline measures the parallel view-synchronization
// pipeline fanning one delete-relation change out over 32 views, at pool
// width 1 (the original sequential behavior) and the default width.
func BenchmarkApplyChangePipeline(b *testing.B) {
	for _, workers := range []int{1, 0} {
		name := "sequential"
		if workers == 0 {
			name = "pooled"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sp, err := scenario.Exp1Space(1)
				if err != nil {
					b.Fatal(err)
				}
				wh, err := New(WithSpace(sp), WithWorkers(workers))
				if err != nil {
					b.Fatal(err)
				}
				for v := 0; v < 32; v++ {
					def := scenario.Exp1View()
					def.Name = fmt.Sprintf("V%d", v)
					if _, err := wh.RegisterView(context.Background(), def); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				if _, err := wh.ApplyChange(context.Background(), DeleteAttribute("R", "A")); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
