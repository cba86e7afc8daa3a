package eve

import "repro/internal/warehouse"

// Observation surface of the v2 API: an Observer installed with
// WithObserver receives a callback at each semantic point of the
// synchronization pass, whether ApplyChange or the evolution session called
// it.
type (
	// Observer receives pipeline notifications: OnChange when a capability
	// change lands, OnSync after a view's rewritings are ranked, OnAdopt
	// when a view adopts its chosen rewriting, OnDecease when a view is
	// left without any legal rewriting, and OnUpdate after a data-update
	// batch maintained every live view. Hooks fire from worker goroutines,
	// possibly concurrently — implementations must be safe for concurrent
	// use. Embed NopObserver to implement a subset.
	Observer = warehouse.Observer
	// NopObserver is the do-nothing Observer, for embedding.
	NopObserver = warehouse.NopObserver
	// MetricsObserver counts pipeline events (changes landed, searches
	// ranked, adoptions, deceases, data updates applied) with atomic
	// counters, and accounts per-phase wall-clock latency (totals, counts,
	// means per Phase) for the OnPhase feed; its zero value is ready to use.
	MetricsObserver = warehouse.MetricsObserver
	// Phase identifies one timed pipeline stage for Observer.OnPhase — the
	// measured counterparts of the QC-Model's analytic cost factors.
	Phase = warehouse.Phase
)

// Timed pipeline phases (Observer.OnPhase): the per-view rewriting search,
// the per-view adoption (including re-materialization), the per-view
// incremental maintenance of a data-update batch, and the routed execution
// of one ad-hoc query.
const (
	PhaseSync     = warehouse.PhaseSync
	PhaseAdopt    = warehouse.PhaseAdopt
	PhaseMaintain = warehouse.PhaseMaintain
	PhaseQuery    = warehouse.PhaseQuery
)
