package warehouse

import (
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/maintain"
	"repro/internal/space"
)

// Phase identifies one timed stage of the pipeline for Observer.OnPhase:
// the per-view synchronize-and-rank search, the per-view rewriting
// adoption, the per-view incremental maintenance of a data-update batch,
// and the routed execution of an ad-hoc query. The observed wall-clock
// timings are the measured counterparts of the QC-Model's analytic cost
// factors — the feed a learned cost model recalibrates against.
type Phase int

// Pipeline phases, in the order a change/update/query flows through them.
const (
	// PhaseSync is one rewriting search of a synchronization pass.
	PhaseSync Phase = iota
	// PhaseAdopt is one view's rewriting adoption incl. re-materialization.
	PhaseAdopt
	// PhaseMaintain is one view's incremental delta maintenance.
	PhaseMaintain
	// PhaseQuery is one routed ad-hoc query: route decision plus execution.
	PhaseQuery
	numPhases
)

// String names the phase for logs and benchmark metric labels.
func (p Phase) String() string {
	switch p {
	case PhaseSync:
		return "sync"
	case PhaseAdopt:
		return "adopt"
	case PhaseMaintain:
		return "maintain"
	case PhaseQuery:
		return "query"
	default:
		return "unknown"
	}
}

// Observer receives notifications from the synchronization pass (SyncPass)
// as it runs — the instrumentation seam of the v2 API. There is one pass, so
// ApplyChange and the evolution session's coalesced groups fire the same
// hooks at the same points.
//
// OnSync, OnAdopt, and OnDecease are invoked from the pipeline's worker
// goroutines, possibly concurrently; implementations must be safe for
// concurrent use (MetricsObserver uses atomics; a logging observer needs
// its own lock). Hooks are called synchronously on the hot path, so they
// should return quickly. Arguments are shared with the pipeline — treat the
// ranking and candidate as read-only.
type Observer interface {
	// OnChange fires once per capability change, immediately after the
	// change lands on the information space.
	OnChange(c space.Change)
	// OnSync fires once per rewriting search, after the legal rewritings of
	// an affected view were generated and ranked, before the pass's changes
	// land. The ranking is nil when the view has no legal rewriting.
	// Structurally identical views facing the same change share one search
	// and therefore one OnSync, named after the first of them.
	OnSync(view string, ranking *core.Ranking)
	// OnAdopt fires when a view adopts its chosen rewriting, after the
	// re-materialized extent replaced the old one.
	OnAdopt(view string, chosen *core.Candidate)
	// OnDecease fires when change c leaves a view without any legal
	// rewriting — or with a best rewriting that could not be adopted — and
	// the view is marked deceased.
	OnDecease(view string, c space.Change)
	// OnUpdate fires once per ApplyUpdates batch, after every live view
	// was maintained and before the new version is published. updates is
	// the number of source updates in the batch (before collapsing);
	// metrics is the summed measured maintenance cost.
	OnUpdate(updates int, metrics maintain.Metrics)
	// OnPhase fires once per timed pipeline stage with its measured
	// wall-clock duration: per view for PhaseSync (alongside OnSync),
	// PhaseAdopt (alongside OnAdopt), and PhaseMaintain, and per routed
	// query for PhaseQuery (from Version.Query).
	// Like the other hooks it may fire from worker goroutines,
	// concurrently.
	OnPhase(p Phase, d time.Duration)
}

// NopObserver is the default Observer: every hook is a no-op. Embed it to
// implement only the hooks an observer cares about.
type NopObserver struct{}

// OnChange implements Observer.
func (NopObserver) OnChange(space.Change) {}

// OnSync implements Observer.
func (NopObserver) OnSync(string, *core.Ranking) {}

// OnAdopt implements Observer.
func (NopObserver) OnAdopt(string, *core.Candidate) {}

// OnDecease implements Observer.
func (NopObserver) OnDecease(string, space.Change) {}

// OnUpdate implements Observer.
func (NopObserver) OnUpdate(int, maintain.Metrics) {}

// OnPhase implements Observer.
func (NopObserver) OnPhase(Phase, time.Duration) {}

// MetricsObserver counts pipeline events with atomic counters — the
// ready-made Observer for dashboards and tests. The zero value is ready to
// use and safe for concurrent use.
type MetricsObserver struct {
	changes, syncs, adopts, deceases, updates atomic.Uint64

	// Per-phase latency accounting: total observed nanoseconds and the
	// number of observations, per Phase. Totals and counts are separate
	// atomics, so a concurrent reader may see a count that is one ahead of
	// the total (or vice versa) — fine for the mean-latency dashboards and
	// benchmark metrics this feeds; reconcile after quiescing for exact
	// numbers.
	phaseNs [numPhases]atomic.Int64
	phaseN  [numPhases]atomic.Uint64
}

// OnChange implements Observer.
func (m *MetricsObserver) OnChange(space.Change) { m.changes.Add(1) }

// OnSync implements Observer.
func (m *MetricsObserver) OnSync(string, *core.Ranking) { m.syncs.Add(1) }

// OnAdopt implements Observer.
func (m *MetricsObserver) OnAdopt(string, *core.Candidate) { m.adopts.Add(1) }

// OnDecease implements Observer.
func (m *MetricsObserver) OnDecease(string, space.Change) { m.deceases.Add(1) }

// OnUpdate implements Observer.
func (m *MetricsObserver) OnUpdate(updates int, _ maintain.Metrics) {
	m.updates.Add(uint64(updates))
}

// Changes returns the number of capability changes that landed.
func (m *MetricsObserver) Changes() uint64 { return m.changes.Load() }

// Syncs returns the number of rewriting searches ranked.
func (m *MetricsObserver) Syncs() uint64 { return m.syncs.Load() }

// Adopts returns the number of rewriting adoptions.
func (m *MetricsObserver) Adopts() uint64 { return m.adopts.Load() }

// Deceases returns the number of views that deceased.
func (m *MetricsObserver) Deceases() uint64 { return m.deceases.Load() }

// Updates returns the number of source data updates applied.
func (m *MetricsObserver) Updates() uint64 { return m.updates.Load() }

// OnPhase implements Observer.
func (m *MetricsObserver) OnPhase(p Phase, d time.Duration) {
	if p < 0 || p >= numPhases {
		return
	}
	m.phaseNs[p].Add(int64(d))
	m.phaseN[p].Add(1)
}

// PhaseCount returns the number of timed observations of phase p.
func (m *MetricsObserver) PhaseCount(p Phase) uint64 {
	if p < 0 || p >= numPhases {
		return 0
	}
	return m.phaseN[p].Load()
}

// PhaseTotal returns the summed observed wall-clock time of phase p.
func (m *MetricsObserver) PhaseTotal(p Phase) time.Duration {
	if p < 0 || p >= numPhases {
		return 0
	}
	return time.Duration(m.phaseNs[p].Load())
}

// PhaseMean returns the mean observed latency of phase p, zero when the
// phase was never observed.
func (m *MetricsObserver) PhaseMean(p Phase) time.Duration {
	n := m.PhaseCount(p)
	if n == 0 {
		return 0
	}
	return m.PhaseTotal(p) / time.Duration(n)
}
