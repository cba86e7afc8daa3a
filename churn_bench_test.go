package eve

// BenchmarkEvolveChurn contrasts the two ways of driving a warehouse
// through a long evolution history (scenario.Churn: hundreds of capability
// changes over tens of twin views with donor replicas):
//
//   - cold: the step-by-step reference loop — one warehouse.ApplyChange per
//     change, so every change pays a snapshot, two worker-pool fan-outs, a
//     full per-view scan, and a from-scratch rewriting search per affected
//     view;
//   - session: one EvolveBatch over the same stream — changes that miss
//     every view skip the pipeline, structurally identical twins share one
//     memoized search, and compatible changes coalesce into a single
//     synchronize→rank→adopt pass.
//
// Both sides run the same warehouse configuration (exhaustive search with
// drop-variant enumeration), and the differential tests in internal/evolve
// prove the outcomes identical; this benchmark measures the saved work.

import (
	"context"
	"testing"

	"repro/internal/scenario"
)

// churnBenchParams is the Exp1-at-scale history the README quotes: 20 twin
// views (2 families × 10) over 12 droppable attributes with 2 donors each,
// and a 240-change stream of which roughly one in five touches a view.
func churnBenchParams() scenario.ChurnParams {
	return scenario.ChurnParams{
		Families:          2,
		TwinsPerFamily:    10,
		Width:             12,
		Donors:            2,
		Spares:            6,
		SpareAttrs:        5,
		Changes:           240,
		Seed:              7,
		FamilyDeleteRatio: 0.10,
		FamilyRenameRatio: 0.06,
		DonorRatio:        0.08,
	}
}

func buildChurnSystem(b *testing.B, h *scenario.ChurnHistory) *System {
	b.Helper()
	sp, err := h.BuildSpace()
	if err != nil {
		b.Fatal(err)
	}
	sys, err := New(WithSpace(sp), WithDropVariants(true), WithMaxDropVariants(256))
	if err != nil {
		b.Fatal(err)
	}
	for _, def := range h.Views() {
		if _, err := sys.RegisterView(context.Background(), def); err != nil {
			b.Fatal(err)
		}
	}
	return sys
}

// BenchmarkEvolveChurn reports ns per full history replay for the cold
// per-change loop and the evolution session. The acceptance bar is a ≥5x
// session advantage.
func BenchmarkEvolveChurn(b *testing.B) {
	h, err := scenario.Churn(churnBenchParams())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			sys := buildChurnSystem(b, h)
			b.StartTimer()
			for _, c := range h.Changes {
				if _, err := sys.ApplyChange(context.Background(), c); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("session", func(b *testing.B) {
		var last *System
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			sys := buildChurnSystem(b, h)
			b.StartTimer()
			if _, err := sys.EvolveBatch(context.Background(), h.Changes); err != nil {
				b.Fatal(err)
			}
			last = sys
		}
		if last != nil {
			// The history is deterministic, so the last timed replay's
			// counters stand for every replay — no extra probe run needed.
			b.StopTimer()
			stats := last.Session().Stats()
			b.ReportMetric(float64(stats.Skipped), "skipped/hist")
			b.ReportMetric(float64(stats.SearchesShared), "shared/hist")
			b.ReportMetric(float64(stats.Groups), "groups/hist")
		}
	})
}
