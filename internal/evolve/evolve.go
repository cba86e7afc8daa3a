package evolve

import (
	"context"

	"repro/internal/space"
	"repro/internal/warehouse"
)

// Session drives one warehouse through a stream of capability changes,
// deciding which changes skip the views and which share one synchronization
// pass (see the package comment). A session assumes it is the warehouse's
// evolution driver: apply changes through Evolve/EvolveBatch while it is
// active. Like the warehouse itself, a session is not safe for concurrent
// use; independent warehouses with independent sessions may run in parallel.
type Session struct {
	w *warehouse.Warehouse
	// index maps a relation name to the set of live views whose FROM
	// references it — the inverted footprint index behind skip decisions.
	// viewEpoch is the warehouse.ViewEpoch the index was built against;
	// newMember rebuilds the index only when the epoch has moved, so an
	// Evolve-per-change streaming driver does not pay an O(views) rebuild
	// on changes that left the registry untouched.
	index     map[string]map[*warehouse.View]bool
	viewEpoch uint64

	stats Stats
}

// Stats counts what the session saved relative to one pass per change.
type Stats struct {
	// Changes is the number of capability changes applied.
	Changes int
	// Groups is the number of passes that searched for rewritings.
	// Skip-only groups — every change footprint-missed all views — only
	// land and publish, and are not counted.
	Groups int
	// Skipped counts changes whose footprint missed every live view, which
	// therefore landed without any view being visited.
	Skipped int
	// Searches counts deduplicated rewriting searches actually run — one
	// per distinct (view-signature, change) per pass.
	Searches int
	// SearchesShared counts per-view searches avoided because a
	// structurally identical view's result was reused within one pass.
	SearchesShared int
}

// StepResult reports one change of an evolution batch: the per-view
// outcomes for exactly the views the change affected, in view registration
// order. Unaffected views are omitted — warehouse.ApplyChange reports them
// as empty SyncResult rows, and a session exists to not visit them at all.
type StepResult struct {
	Change  space.Change
	Results []warehouse.SyncResult
}

// NewSession creates an evolution session over the warehouse. Create one
// session per warehouse and keep it — the footprint index amortizes over
// the warehouse's whole change history and is refreshed whenever the
// warehouse's view registry moves (warehouse.ViewEpoch), so views
// registered between batches and changes applied around the session are
// both picked up by the next change footprinted.
func NewSession(w *warehouse.Warehouse) *Session { return &Session{w: w} }

// Stats returns the session's amortization counters.
func (s *Session) Stats() Stats { return s.stats }

// reindex rebuilds the relation→views footprint index from the live views
// and records the registry epoch it reflects.
func (s *Session) reindex() {
	s.index = make(map[string]map[*warehouse.View]bool)
	for _, v := range s.w.Live() {
		for _, f := range v.Def.From {
			set := s.index[f.Rel]
			if set == nil {
				set = make(map[*warehouse.View]bool)
				s.index[f.Rel] = set
			}
			set[v] = true
		}
	}
	s.viewEpoch = s.w.ViewEpoch()
}

// Evolve applies a single capability change through the session — the
// one-change form of EvolveBatch for drivers that decide each change from
// the previous outcome (experiments.RunExp1's adaptive walk). For unbounded
// change feeds, Stream keeps coalescing across the feed instead.
func (s *Session) Evolve(ctx context.Context, c space.Change) (StepResult, error) {
	res, err := s.EvolveBatch(ctx, []space.Change{c})
	if len(res) > 0 {
		return res[0], err
	}
	return StepResult{Change: c}, err
}

// EvolveBatch applies a stream of capability changes in order and returns
// one StepResult per change. Consecutive compatible changes (see
// compatible) are coalesced into a single synchronization pass; the
// result is identical to feeding the changes one by one through
// warehouse.ApplyChange — same surviving views, same adopted rewritings,
// same QC scores — which the differential tests enforce over randomized
// churn histories.
//
// Errors and cancellation follow warehouse.SyncPass's landed-prefix
// contract, with ctx also observed between groups: the batch stops at the
// first rejected change (*space.ChangeError), failed adoption or
// cancellation, and returns the error with the steps of exactly the changes
// that landed — each fully adopted or deceased, as the uncancelled replay of
// that prefix would leave it — while nothing after them has landed at all.
func (s *Session) EvolveBatch(ctx context.Context, changes []space.Change) ([]StepResult, error) {
	out := make([]StepResult, 0, len(changes))
	for start := 0; start < len(changes); {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		group := []*member{s.newMember(changes[start])}
		for _, c := range changes[start+1:] {
			m := s.newMember(c)
			if !compatible(group, m) {
				break
			}
			group = append(group, m)
		}
		res, err := s.pass(ctx, group)
		out = append(out, res...)
		if err != nil {
			return out, err
		}
		start += len(group)
	}
	return out, nil
}

// pass hands one group of compatible changes to warehouse.SyncPass, which
// owns the rank → land → adopt → publish sequence and its commit-point rule,
// and folds the outcome into the session: the amortization counters and one
// StepResult per landed change.
func (s *Session) pass(ctx context.Context, group []*member) ([]StepResult, error) {
	changes := make([]warehouse.PassChange, len(group))
	for i, m := range group {
		changes[i] = warehouse.PassChange{Change: m.c, Affected: m.affected}
	}
	res, err := s.w.SyncPass(ctx, changes)
	s.stats.Searches += res.Searches
	s.stats.SearchesShared += res.SearchesShared
	if res.Searches > 0 {
		s.stats.Groups++
	}
	steps := make([]StepResult, len(res.Steps))
	for i, results := range res.Steps {
		steps[i] = StepResult{Change: group[i].c, Results: results}
		if len(group[i].affected) == 0 {
			s.stats.Skipped++
		}
	}
	s.stats.Changes += len(steps)
	return steps, err
}
