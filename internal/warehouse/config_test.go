package warehouse

import (
	"context"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
)

// configRecorder checks every ranking a pass produces against the
// configuration the warehouse was constructed with.
type configRecorder struct {
	NopObserver
	want Config

	mu  sync.Mutex
	bad string
}

func (r *configRecorder) OnSync(view string, ranking *core.Ranking) {
	if ranking == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case ranking.Tradeoff != r.want.Tradeoff:
		r.bad = view + ": ranked under a trade-off other than the constructed one"
	case ranking.CostModel != r.want.Cost:
		r.bad = view + ": ranked under a cost model other than the constructed one"
	case len(ranking.Candidates) > r.want.TopK:
		r.bad = view + ": ranking exceeds the constructed TopK"
	}
}

// TestKnobSnapshotUnderConcurrentTuner keeps its name from when a tuner
// could retune a running warehouse and every pass pinned a knob snapshot
// against it. Nothing retunes a warehouse any more; what survives is the
// guarantee the snapshot bought: every pass of a churn history ranks all of
// its views under exactly one trade-off, cost model and bound — the
// constructed, non-default ones — while other goroutines read the
// configuration back (race-clean under -race, with no lock to take).
func TestKnobSnapshotUnderConcurrentTuner(t *testing.T) {
	h, err := scenario.Churn(scenario.ChurnParams{
		Families:          2,
		TwinsPerFamily:    3,
		Width:             5,
		Donors:            2,
		Spares:            3,
		SpareAttrs:        4,
		Changes:           60,
		Seed:              7,
		FamilyDeleteRatio: 0.2,
		FamilyRenameRatio: 0.1,
		DonorRatio:        0.1,
		ReplaceableViews:  true,
		AllowDecease:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := h.BuildSpace()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Tradeoff.W1, cfg.Tradeoff.W2 = 0.6, 0.4
	cfg.Cost.BlockingFactor *= 2
	cfg.TopK = 2
	cfg.Workers = 3
	cfg.DropVariants = true
	rec := &configRecorder{want: cfg}
	cfg.Observer = rec
	w := New(sp, cfg)
	for _, def := range h.Views() {
		if _, err := w.RegisterView(context.Background(), def); err != nil {
			t.Fatal(err)
		}
	}

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
				if c := w.Config(); c.Tradeoff != cfg.Tradeoff || c.Cost != cfg.Cost ||
					c.TopK != cfg.TopK || c.Workers != cfg.Workers {
					t.Error("Config disagrees with the constructed configuration")
					return
				}
			}
		}()
	}
	for i, c := range h.Changes {
		if _, err := w.ApplyChange(context.Background(), c); err != nil {
			close(done)
			readers.Wait()
			t.Fatalf("change %d (%s): %v", i, c, err)
		}
	}
	close(done)
	readers.Wait()

	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.bad != "" {
		t.Fatal(rec.bad)
	}
}
