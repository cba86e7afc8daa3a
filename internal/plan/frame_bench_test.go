package plan

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/esql"
	"repro/internal/relation"
)

// gridPlan compiles the grid benchmark's fixed join shape at the given
// cardinality: R(A,B) ⋈ S(C,D) on A = C with unique keys (a 1:1 join, so
// the result tracks the input size) and a kernel-exercising filter on each
// side. Returns the plan and the input byte volume one execution scans.
func gridPlan(b *testing.B, card int) (*Plan, int64) {
	b.Helper()
	mk := func(name, a1, a2 string) *relation.Relation {
		r := relation.New(name, relation.NewSchema(
			relation.Attribute{Name: a1, Type: relation.TypeInt, Size: 8},
			relation.Attribute{Name: a2, Type: relation.TypeInt, Size: 8},
		))
		for i := 0; i < card; i++ {
			if err := r.Insert(relation.Tuple{relation.Int(int64(i)), relation.Int(int64(i * 3))}); err != nil {
				b.Fatal(err)
			}
		}
		return r
	}
	r := mk("R", "A", "B")
	s := mk("S", "C", "D")
	q := esql.MustParse(`CREATE VIEW V AS SELECT R.B, S.D FROM R, S WHERE R.A = S.C AND R.B >= 0 AND S.D >= 0`)
	p, err := CompileCatalog(q, staticCatalog{
		rels:  map[string]*relation.Relation{"R": r, "S": s},
		cards: map[string]int{"R": r.Card(), "S": s.Card()},
	})
	if err != nil {
		b.Fatal(err)
	}
	return p, int64(r.Card()*r.TupleSize() + s.Card()*s.TupleSize())
}

// BenchmarkColumnarGrid sweeps the executor's batch size over
// 1k/10k/100k-row extents on one fixed 1:1 hash-join shape, at chunk sizes
// bracketing the production vecChunk. `make bench-plan` records the grid in
// BENCH_plan.json.
func BenchmarkColumnarGrid(b *testing.B) {
	for _, chunk := range []int{1024, 4096, 16384} {
		for _, card := range []int{1_000, 10_000, 100_000} {
			b.Run(fmt.Sprintf("path=columnar/chunk=%d/card=%d", chunk, card), func(b *testing.B) {
				p, bytes := gridPlan(b, card)
				b.ReportAllocs()
				b.SetBytes(bytes)
				b.ResetTimer()
				var out *relation.Relation
				for i := 0; i < b.N; i++ {
					var err error
					if out, err = p.Root.run(context.Background(), chunk); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(out.Card()), "result-tuples")
			})
		}
	}
}
