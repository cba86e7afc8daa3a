package eve

// Configuration is frozen at New: the constructed values are what every
// pass ranks under and what every published Version prices and reports
// with, and they are read without a lock.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/scenario"
)

// TestNewPublishesOnce: New builds its initial Version from the configured
// cost model and observer, so there is nothing to republish — the startup
// Version is Seq 1, routes with the configured page size, and reports its
// reads to the configured observer.
func TestNewPublishesOnce(t *testing.T) {
	cm := DefaultCostModel()
	cm.BlockingFactor = 1 // one row per page: Parts' three rows cost three pages a scan, not one
	m := &MetricsObserver{}
	sys := buildPartsSystem(t, WithCostModel(cm), WithObserver(m))
	v := sys.Snapshot()
	if v.Seq() != 1 {
		t.Fatalf("startup Version has Seq %d, want 1 (New publishes once)", v.Seq())
	}
	const q = "SELECT P.PartID FROM Parts P"
	r, err := v.RouteQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	def, err := buildPartsSystem(t).Snapshot().RouteQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cost <= def.Cost {
		t.Errorf("route priced at %g pages under a 1-row page, %g under the default: the startup Version ignores WithCostModel", r.Cost, def.Cost)
	}
	if _, err := v.Query(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if got := m.PhaseCount(PhaseQuery); got != 1 {
		t.Errorf("configured observer saw %d PhaseQuery reports from the startup Version, want 1", got)
	}
}

// configChurn is the churn history the configuration tests replay: views
// decease, twins migrate onto donors, view-free changes skip.
func configChurn(t *testing.T) *scenario.ChurnHistory {
	t.Helper()
	h, err := scenario.Churn(scenario.ChurnParams{
		Families:          2,
		TwinsPerFamily:    3,
		Width:             5,
		Donors:            2,
		Spares:            3,
		SpareAttrs:        4,
		Changes:           60,
		Seed:              31,
		FamilyDeleteRatio: 0.2,
		FamilyRenameRatio: 0.1,
		DonorRatio:        0.1,
		ReplaceableViews:  true,
		AllowDecease:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// rankedUnder fails the test for every ranking scored under anything but
// the given trade-off, cost model and bound.
type rankedUnder struct {
	NopObserver
	t    *testing.T
	to   Tradeoff
	cm   CostModel
	topK int
}

func (r *rankedUnder) OnSync(view string, ranking *Ranking) {
	if ranking == nil {
		return
	}
	if ranking.Tradeoff != r.to || ranking.CostModel != r.cm {
		r.t.Errorf("%s ranked under %+v / %+v, want the constructed %+v / %+v",
			view, ranking.Tradeoff, ranking.CostModel, r.to, r.cm)
	}
	if r.topK > 0 && len(ranking.Candidates) > r.topK {
		r.t.Errorf("%s ranking holds %d candidates, constructed TopK is %d", view, len(ranking.Candidates), r.topK)
	}
}

// churnSystem builds a system over h's space with h's views registered.
func churnSystem(t *testing.T, h *scenario.ChurnHistory, opts ...Option) *System {
	t.Helper()
	sp, err := h.BuildSpace()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(append([]Option{WithSpace(sp), WithDropVariants(true)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range h.Views() {
		if _, err := sys.RegisterView(context.Background(), def); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

// TestKnobPokesMidEvolveBatch keeps its name from when knobs could be poked
// in the middle of an EvolveBatch. There is nothing left to poke; what
// survives is the guarantee the pokes threatened: the non-default values a
// system was constructed with are what every pass of an evolution session
// ranks under and what the accessors report, before, between and after
// batches.
func TestKnobPokesMidEvolveBatch(t *testing.T) {
	h := configChurn(t)
	to := DefaultTradeoff()
	to.W1, to.W2 = 0.6, 0.4
	cm := DefaultCostModel()
	cm.BlockingFactor = 20
	sys := churnSystem(t, h, WithTradeoff(to), WithCostModel(cm), WithTopK(3), WithWorkers(2),
		WithObserver(&rankedUnder{t: t, to: to, cm: cm, topK: 3}))
	check := func(when string) {
		t.Helper()
		if sys.Tradeoff() != to || sys.CostModel() != cm || sys.TopK() != 3 || sys.Workers() != 2 {
			t.Fatalf("%s: accessors report %+v / %+v / %d / %d, not the constructed values",
				when, sys.Tradeoff(), sys.CostModel(), sys.TopK(), sys.Workers())
		}
	}
	check("before the first batch")
	half := len(h.Changes) / 2
	for i, batch := range [][]Change{h.Changes[:half], h.Changes[half:]} {
		if _, err := sys.EvolveBatch(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("after batch %d", i+1))
	}
}

// TestConfigReadsRaceFree replays the churn history through EvolveBatch
// while four goroutines read the configuration the way a serving front-end
// does — the accessors, and routed queries pricing with the cost model and
// reporting to the observer through a pinned Version. No lock orders these
// reads against the passes; -race (make stress, make race) is what shows
// none is needed, and every pass must still rank under the constructed
// trade-off.
func TestConfigReadsRaceFree(t *testing.T) {
	h := configChurn(t)
	to := DefaultTradeoff()
	to.W1, to.W2 = 0.6, 0.4
	cm := DefaultCostModel()
	sys := churnSystem(t, h, WithTradeoff(to), WithObserver(&rankedUnder{t: t, to: to, cm: cm}))

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				if sys.Tradeoff() != to || sys.CostModel() != cm || sys.TopK() != 0 {
					t.Error("accessors disagree with the constructed configuration")
					return
				}
				v := sys.Snapshot()
				names := v.RelationNames()
				rel := v.Relation(names[i%len(names)])
				q := fmt.Sprintf("SELECT %s FROM %s", rel.Schema().Attr(0).Name, rel.Name)
				if _, err := v.Query(context.Background(), q); err != nil {
					t.Errorf("seq %d: %s: %v", v.Seq(), q, err)
					return
				}
			}
		}()
	}
	_, err := sys.EvolveBatch(context.Background(), h.Changes)
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
}
