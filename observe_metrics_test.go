package eve

// Satellite coverage for MetricsObserver under concurrency: one shared
// observer counts pipeline events from several systems evolving in
// parallel while reader goroutines serve from published versions. The
// atomic totals must equal the sum of per-pass events each session
// reported — no lost or double-counted increments — and the whole run must
// be race-clean under -race.

import (
	"context"
	"sync"
	"testing"

	"repro/internal/scenario"
)

// TestMetricsObserverConcurrentSessionsAndReaders runs 4 independent
// systems sharing one MetricsObserver, each with its own churn history and
// its own serving readers, then reconciles the observer's totals against
// the per-session ground truth (StepResults and session Stats).
func TestMetricsObserverConcurrentSessionsAndReaders(t *testing.T) {
	const systems = 4
	metrics := &MetricsObserver{}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		errs     []error
		changes  uint64
		syncs    uint64
		adopts   uint64
		deceases uint64
	)
	fail := func(err error) {
		mu.Lock()
		errs = append(errs, err)
		mu.Unlock()
	}

	for g := 0; g < systems; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h, err := scenario.Churn(scenario.ChurnParams{
				Families:          2,
				TwinsPerFamily:    3,
				Width:             5,
				Donors:            2,
				Spares:            3,
				SpareAttrs:        4,
				Changes:           50,
				Seed:              int64(200 + g),
				FamilyDeleteRatio: 0.2,
				FamilyRenameRatio: 0.1,
				DonorRatio:        0.1,
				ReplaceableViews:  g%2 == 0,
				AllowDecease:      true,
			})
			if err != nil {
				fail(err)
				return
			}
			sp, err := h.BuildSpace()
			if err != nil {
				fail(err)
				return
			}
			sys, err := New(WithSpace(sp), WithObserver(metrics), WithDropVariants(true))
			if err != nil {
				fail(err)
				return
			}
			for _, def := range h.Views() {
				if _, err := sys.RegisterView(context.Background(), def); err != nil {
					fail(err)
					return
				}
			}

			// Serving readers riding along with the session.
			done := make(chan struct{})
			var readers sync.WaitGroup
			for r := 0; r < 2; r++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					for {
						select {
						case <-done:
							return
						default:
						}
						v := sys.Snapshot()
						for _, name := range v.ViewNames() {
							if _, err := v.Extent(name); err != nil {
								fail(err)
								return
							}
						}
					}
				}()
			}

			steps, err := sys.EvolveBatch(context.Background(), h.Changes)
			close(done)
			readers.Wait()
			if err != nil {
				fail(err)
				return
			}

			// Ground truth for this system: one OnChange per landed step,
			// one OnAdopt per chosen rewriting, one OnDecease per deceased
			// view, one OnSync per deduplicated search (session Stats).
			var a, d uint64
			for _, step := range steps {
				for _, res := range step.Results {
					if res.Chosen != nil {
						a++
					}
					if res.Deceased {
						d++
					}
				}
			}
			mu.Lock()
			changes += uint64(len(steps))
			syncs += uint64(sys.Session().Stats().Searches)
			adopts += a
			deceases += d
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		t.Fatal(err)
	}

	if got := metrics.Changes(); got != changes {
		t.Errorf("Changes = %d, want the %d landed steps", got, changes)
	}
	if got := metrics.Syncs(); got != syncs {
		t.Errorf("Syncs = %d, want the %d deduplicated searches", got, syncs)
	}
	if got := metrics.Adopts(); got != adopts {
		t.Errorf("Adopts = %d, want the %d adoptions", got, adopts)
	}
	if got := metrics.Deceases(); got != deceases {
		t.Errorf("Deceases = %d, want the %d deceases", got, deceases)
	}
}
