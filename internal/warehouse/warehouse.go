package warehouse

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/esql"
	"repro/internal/exec"
	"repro/internal/maintain"
	"repro/internal/space"
	"repro/internal/synchronize"
)

// Config is the warehouse's configuration: the parameters the paper's
// administrator fixes for the QC-Model, the bound of the rewriting search,
// and the instrumentation. New takes it by value and nothing assigns it
// afterwards, so passes, published Versions and concurrent readers all read
// it without synchronization.
type Config struct {
	// Tradeoff holds the quality weights and ρ pairs every ranking uses.
	Tradeoff core.Tradeoff
	// Cost holds Table 1's maintenance-cost statistics; rankings and routed
	// reads price with it.
	Cost core.CostModel
	// TopK bounds each rewriting search to its K best candidates; zero or
	// less means unbounded (the full ranking).
	TopK int
	// Workers bounds the synchronization pass's worker pool; zero means one
	// worker per available CPU.
	Workers int
	// DropVariants adds the CVS-style drop-variant spectrum (footnote 2) to
	// every search, capped per base rewriting at the MaxDropVariants
	// lightest valid variants.
	DropVariants    bool
	MaxDropVariants int
	// Observer receives pipeline notifications; nil means none.
	Observer Observer
}

// DefaultConfig returns the paper's default parameters: the default
// trade-off and cost model, an unbounded search without drop-variants, one
// worker per CPU, no observer.
func DefaultConfig() Config {
	return Config{
		Tradeoff:        core.DefaultTradeoff(),
		Cost:            core.DefaultCostModel(),
		MaxDropVariants: synchronize.DefaultMaxDropVariants,
	}
}

// Warehouse is the EVE system instance.
type Warehouse struct {
	Space *space.Space

	// cfg is frozen: New stores its own copy (with a nil Observer replaced
	// by the no-op) and nothing writes the field or the value afterwards.
	// Published Versions share the pointer, so a Version a reader holds on
	// to pins the configuration, not the warehouse.
	cfg *Config
	// synchronizer generates legal rewritings. Built once in New from cfg,
	// with the drop-variant stream ordered by the QC quality weight of
	// cfg.Tradeoff so the search's pruning bound is exact.
	synchronizer *synchronize.Synchronizer

	// maintainers holds each live view's View Maintainer (Algorithm 1),
	// keyed by view name. It belongs to the single evolution writer and
	// stays out of the published Version, which is data only.
	maintainers map[string]*maintain.Maintainer

	// published is the epoch-publication point and the view registry: the
	// latest immutable Version, swapped in atomically at each commit point
	// (RegisterView, SyncPass, ApplyUpdates). The writer reads its views
	// from it like any reader; readers acquire it lock-free through Acquire
	// and never observe a half-applied pass.
	published atomic.Pointer[Version]

	// memo holds the plan templates and match proofs routed reads derive,
	// shared by every Version this warehouse publishes.
	memo routeMemo
}

// New creates a warehouse over an information space under the given
// configuration (DefaultConfig for the paper's parameters). It validates
// nothing: input checks are the options API's job (eve.New).
func New(sp *space.Space, cfg Config) *Warehouse {
	if cfg.Observer == nil {
		cfg.Observer = NopObserver{}
	}
	w := &Warehouse{
		Space: sp,
		cfg:   &cfg,
		synchronizer: &synchronize.Synchronizer{
			MKB:                   sp.MKB(),
			EnumerateDropVariants: cfg.DropVariants,
			MaxDropVariants:       cfg.MaxDropVariants,
			VariantWeight:         dropWeightFor(cfg.Tradeoff),
		},
		maintainers: make(map[string]*maintain.Maintainer),
	}
	// Publish the (empty) initial version so Acquire is never nil and a
	// reader started before the first view registration still gets a
	// coherent snapshot.
	w.publish()
	return w
}

// DefineView parses, qualifies, materializes, and registers an E-SQL view.
// ctx bounds the initial materialization scan; a cancelled registration
// registers nothing.
func (w *Warehouse) DefineView(ctx context.Context, src string) (*VersionView, error) {
	def, err := esql.Parse(src)
	if err != nil {
		return nil, err
	}
	return w.RegisterView(ctx, def)
}

// RegisterView registers an already-built definition and publishes a new
// warehouse version including it, returning the view as that version
// captured it. ctx bounds the initial materialization scan; a cancelled
// registration registers nothing.
func (w *Warehouse) RegisterView(ctx context.Context, def *esql.ViewDef) (*VersionView, error) {
	if w.Acquire().View(def.Name) != nil {
		return nil, fmt.Errorf("warehouse: view %q: %w", def.Name, ErrDuplicateView)
	}
	q, err := exec.Qualify(def, w.Space)
	if err != nil {
		return nil, err
	}
	ext, err := exec.Evaluate(ctx, q, w.Space)
	if err != nil {
		return nil, err
	}
	v := &VersionView{Name: def.Name, Def: q, Extent: ext}
	w.maintainers[v.Name] = maintain.New(w.Space, q, ext, w.cfg.Cost.Bfr())
	w.publish(v)
	return v, nil
}

// Config returns a copy of the configuration the warehouse was constructed
// with (Observer is the no-op when none was given).
func (w *Warehouse) Config() Config { return *w.cfg }

// postCommit returns the context a pass runs under past its commit point:
// the caller's values with cancellation stripped. Once a base change has
// landed, adoption and maintenance must run to completion even if the
// caller gives up — a half-adopted view or a stale extent would break the
// landed-prefix guarantee the PR 4 cancellation rule promises. This is the
// one context.WithoutCancel site the ctxflow analyzer (internal/analysis)
// allows; new uses go through this helper, not through fresh WithoutCancel
// calls.
func postCommit(ctx context.Context) context.Context {
	return context.WithoutCancel(ctx)
}

// ApplyUpdates lands a batch of data updates and incrementally maintains
// every live view, returning the summed measured metrics. The batch is
// first collapsed into net per-relation deltas (charging each update's
// notification exactly once, no matter how many views consume it), then
// the base relations are replaced copy-on-write, and finally the deltas
// are propagated through each live view's maintainer (Algorithm 1) into a
// fresh extent object. A new Version is published per batch; readers
// holding any previously acquired Version keep seeing their snapshot's
// relations and extents untouched — data updates never mutate shared
// state in place.
//
// The context is observed up to the commit point: once the base change
// has landed, the maintenance pass runs to completion regardless of ctx
// so no view is left stale against the new base state. A view whose
// maintenance fails past that point deceases (History note, OnDecease)
// while the others are still maintained; the batch publishes and the
// error names every such view. A batch that
// collapses to nothing (all no-ops) returns the notification metrics
// without republishing.
func (w *Warehouse) ApplyUpdates(ctx context.Context, updates []maintain.Update) (maintain.Metrics, error) {
	deltas, total, err := maintain.Collapse(w.Space, updates)
	if err != nil || len(deltas) == 0 {
		return total, err
	}
	if err := ctx.Err(); err != nil {
		return total, err
	}
	// Commit point: the base change lands copy-on-write. From here the
	// pass completes even if ctx is cancelled, mirroring ApplyChange.
	pre, err := maintain.ApplyBase(w.Space, deltas)
	if err != nil {
		return total, err
	}
	mctx := postCommit(ctx)
	var changed []*VersionView
	var errs []error
	for _, v := range w.Acquire().Views() {
		mt := w.maintainers[v.Name]
		start := time.Now()
		m, err := mt.ApplyDeltas(mctx, deltas, pre)
		w.cfg.Observer.OnPhase(PhaseMaintain, time.Since(start))
		total.Add(m)
		if err != nil {
			// The base has landed, so the batch cannot be undone: a view
			// that cannot follow it deceases, and the rest are maintained.
			changed = append(changed, w.decease(v, fmt.Sprintf("data update: maintenance failed (%v)", err), space.Change{}))
			delete(w.maintainers, v.Name)
			errs = append(errs, fmt.Errorf("warehouse: view %q: maintaining: %w", v.Name, err))
			continue
		}
		if mt.Extent != v.Extent {
			changed = append(changed, &VersionView{Name: v.Name, Def: v.Def, Extent: mt.Extent, History: v.History})
		}
	}
	w.cfg.Observer.OnUpdate(len(updates), total)
	// Republish so new readers see the updated relations and extents. Data
	// updates move the version sequence but not the view epoch: view
	// definitions and routing are unchanged, only the data underneath —
	// unless a view deceased.
	w.publish(changed...)
	return total, errors.Join(errs...)
}

// SyncResult reports one view's synchronization outcome for a capability
// change.
type SyncResult struct {
	ViewName string
	// Ranking is nil when the view was unaffected.
	Ranking *core.Ranking
	// Chosen is the adopted rewriting (the ranking's best), nil when the
	// view deceased or was unaffected.
	Chosen *core.Candidate
	// Deceased marks a view with no legal rewriting.
	Deceased bool
}

// Snapshot is an immutable copy of the advertised MKB cardinality of every
// registered relation. It is built once per synchronization pass, before the
// pass's changes land, and shared read-only by every concurrent search, so
// rankings are insensitive to MKB evolution and scheduling order.
type Snapshot struct {
	cards map[string]int
}

// TakeSnapshot captures the current MKB cardinalities.
func (w *Warehouse) TakeSnapshot() *Snapshot {
	cards := make(map[string]int)
	for _, info := range w.Space.MKB().Relations() {
		cards[info.Ref.Rel] = info.Card
	}
	return &Snapshot{cards: cards}
}

// Card returns the snapshotted cardinality of rel (zero when unknown). A
// nil snapshot reports every relation as unknown.
func (s *Snapshot) Card(rel string) int {
	if s == nil {
		return 0
	}
	return s.cards[rel]
}

// ApplyChange applies one capability change to the information space and
// synchronizes every affected view — the one-change SyncPass, which holds
// the pipeline and its commit-point rule: a cancelled or rejected
// ApplyChange did nothing, any other did everything. The result has one row
// per view that was live before the change, in registration order, with an
// empty row for each view the change did not affect; on any error,
// including a failed adoption, it is nil.
func (w *Warehouse) ApplyChange(ctx context.Context, c space.Change) ([]SyncResult, error) {
	live := w.Acquire().Views()
	var affected []*VersionView
	for _, v := range live {
		if synchronize.Affected(v.Def, c) {
			affected = append(affected, v)
		}
	}
	res, err := w.SyncPass(ctx, []PassChange{{Change: c, Affected: affected}})
	if err != nil {
		return nil, err
	}
	hit := res.Steps[0]
	rows := make([]SyncResult, len(live))
	for i, v := range live {
		if len(hit) > 0 && hit[0].ViewName == v.Name {
			rows[i], hit = hit[0], hit[1:]
		} else {
			rows[i].ViewName = v.Name
		}
	}
	return rows, nil
}

// ScenarioFor derives the cost model's update scenario from the rewriting's
// relation placement across sources: the first FROM relation's site is
// treated as the update origin (holding its co-located view relations as
// n_1), remaining sites follow in FROM order. Cardinalities fall back to
// the snapshot for relations the MKB no longer knows; a nil snapshot is
// allowed and reports unknown cardinalities as zero.
func (w *Warehouse) ScenarioFor(def *esql.ViewDef, snap *Snapshot) core.UpdateScenario {
	type site struct {
		name string
		rels []core.RelStats
	}
	var sites []*site
	index := map[string]*site{}
	statsOf := func(rel string) core.RelStats {
		st := core.RelStats{Card: snap.Card(rel), TupleSize: 100, Selectivity: 1}
		if info := w.Space.MKB().Relation(rel); info != nil {
			st.Card = info.Card
			st.TupleSize = info.Schema.TupleSize()
			if info.LocalSelectivity > 0 {
				st.Selectivity = info.LocalSelectivity
			}
		}
		return st
	}
	localSelectivity := func(binding string) float64 {
		// One local condition per relation (Section 6.1 assumption 4):
		// count the view's constant clauses on this binding.
		sigma := 1.0
		for _, cond := range def.Where {
			if cond.Clause.IsJoin() {
				continue
			}
			if cond.Clause.Left.Rel == binding {
				s := w.Space.MKB().DefaultSelectivity
				if s <= 0 || s > 1 {
					s = 0.5
				}
				sigma *= s
			}
		}
		return sigma
	}
	for i, f := range def.From {
		home := w.Space.Home(f.Rel)
		if home == "" {
			home = fmt.Sprintf("?site%d", i)
		}
		s, ok := index[home]
		if !ok {
			s = &site{name: home}
			index[home] = s
			sites = append(sites, s)
		}
		st := statsOf(f.Rel)
		st.Selectivity *= localSelectivity(f.Binding())
		s.rels = append(s.rels, st)
	}
	u := core.UpdateScenario{UpdatedTupleSize: 100}
	if len(sites) > 0 && len(sites[0].rels) > 0 {
		u.UpdatedTupleSize = sites[0].rels[0].TupleSize
		// The update originates at the first relation; its site's other
		// relations form n_1.
		first := sites[0]
		u.Sites = append(u.Sites, core.SiteLoad{Relations: first.rels[1:]})
		for _, s := range sites[1:] {
			u.Sites = append(u.Sites, core.SiteLoad{Relations: s.rels})
		}
	}
	return u
}
