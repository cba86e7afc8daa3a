package eve

// BenchmarkSynchronizeWide runs the one rewriting search on wide views
// (10–18 droppable attributes, i.e. 2^10–2^18 drop-variants per base
// rewriting) with and without a bound:
//
//   - unbounded: SearchTopK with K = 0 scores and ranks the full CVS
//     spectrum, every variant inheriting its base's extent estimate and
//     update scenario;
//   - topk: SearchTopK with K = 5 scores the base rewritings, then streams
//     each base's variants best-first and branch-and-bounds against the K-th
//     best QC score, so almost none of the spectrum is ever built.
//
// The bound's advantage grows exponentially with width, and so does the
// unbounded leg's time: under -short (CI's kernel smoke) the unbounded leg at
// width 18, which alone takes seconds, is skipped. The retired third
// leg — Synchronize + core.Rank, re-estimating every variant — is in CHANGES'
// retired-measurements table.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/esql"
	"repro/internal/scenario"
	"repro/internal/space"
	"repro/internal/warehouse"
)

// wideSetup prepares one warehouse over the wide scenario with the full
// drop-variant spectrum enabled.
func wideSetup(b *testing.B, width int) (*warehouse.Warehouse, *esql.ViewDef, space.Change, *warehouse.Snapshot) {
	b.Helper()
	sp, err := scenario.WideSpace(width, 2)
	if err != nil {
		b.Fatal(err)
	}
	cfg := warehouse.DefaultConfig()
	cfg.DropVariants = true
	cfg.MaxDropVariants = 1 << 30
	w := warehouse.New(sp, cfg)
	c := space.Change{Kind: space.DeleteRelation, Rel: "W0"}
	return w, scenario.WideView(width), c, w.TakeSnapshot()
}

// BenchmarkSynchronizeWide runs the unbounded search against the top-5
// search at increasing widths.
func BenchmarkSynchronizeWide(b *testing.B) {
	for _, width := range []int{10, 14, 18} {
		for _, leg := range []struct {
			name string
			k    int
		}{{"unbounded", 0}, {"topk", 5}} {
			b.Run(fmt.Sprintf("%s/width=%d", leg.name, width), func(b *testing.B) {
				if leg.k == 0 && width == 18 && testing.Short() {
					b.Skip("the full width-18 spectrum takes seconds; run without -short")
				}
				w, def, c, snap := wideSetup(b, width)
				var ranked int
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ranking, err := w.SearchTopK(context.Background(), def, c, snap, leg.k)
					if err != nil {
						b.Fatal(err)
					}
					ranked = len(ranking.Candidates)
				}
				b.ReportMetric(float64(ranked), "candidates")
			})
		}
	}
}
