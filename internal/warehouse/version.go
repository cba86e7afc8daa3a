package warehouse

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/esql"
	"repro/internal/misd"
	"repro/internal/plan"
	"repro/internal/relation"
)

// VersionView is one view captured in a published Version: the adopted
// definition, the materialized extent, and the synchronization history as
// of the version's commit point. All three are immutable under evolution —
// adoption replaces a view's definition and extent with fresh objects
// instead of mutating the old ones, so a reader holding a VersionView keeps
// seeing exactly the pass it was published by.
type VersionView struct {
	// Name is the view's registered name.
	Name string
	// Def is the (qualified) definition adopted as of this version.
	Def *esql.ViewDef
	// Extent is the materialized extent as of this version. Nothing
	// mutates it: capability changes adopt by re-materializing into a new
	// relation, and data updates (ApplyUpdates) fold their deltas into a
	// fresh copy-on-write extent published under a new Version. A reader
	// holding this VersionView re-reads the same rows indefinitely.
	Extent *relation.Relation
	// History records the synchronization steps applied up to this version.
	History []string
	// Deceased marks a view that a change up to this version left without
	// any legal rewriting. Deceased views are excluded from Views and
	// ViewNames but stay reachable through View for post-mortem reads.
	Deceased bool
}

// Version is one immutable published state of the warehouse — the MVCC-lite
// unit behind lock-free concurrent query serving during evolution. The
// evolution writer assembles a Version at each commit point (view
// registration, each synchronization pass, each data-update batch)
// and publishes it with one atomic pointer swap; Acquire hands the latest
// one to readers with a single atomic load.
//
// Consistency contract: everything a Version exposes was captured at one
// commit point, after the pass's base changes landed and every affected
// view fully adopted or deceased. A reader therefore never observes a
// half-applied pass — the reader-side extension of the landed-prefix rule
// that cancellation already guarantees on the writer side. Because every
// writer path is copy-on-write — adoption builds new definition, extent,
// and base relation objects, and data updates (ApplyUpdates) replace
// touched base relations and view extents with freshly built ones — later
// passes never mutate anything an older Version references: a reader may
// keep a Version for as long as it likes and re-read it consistently, with
// no coordination against the writer. Data updates become visible the same
// way capability changes do, by acquiring the next published Version.
//
// Epoch is the warehouse's view-registry generation at publication
// (ViewEpoch); Seq increases by one per publication, including
// registry-neutral ones (e.g. a pass that only changed spare relations).
type Version struct {
	seq   uint64
	epoch uint64
	// cfg is the publishing warehouse's frozen configuration: routed reads
	// price with its cost model and report PhaseQuery to its observer.
	cfg *Config

	views  []*VersionView
	byName map[string]*VersionView
	rels   map[string]*relation.Relation
	cards  map[string]int
	sigma  float64
	js     float64
	// pcs are the MKB's PC constraints as captured at the commit point, so
	// the query router's containment reasoning (misd.EqualMapping) works
	// against the same snapshot the rest of the version exposes rather than
	// the live, mutable MKB.
	pcs []misd.PCConstraint

	// plans caches compiled physical plans per view name. Within one
	// version the captured relations never change, so a compiled plan stays
	// valid for the version's whole lifetime and can be executed by any
	// number of readers concurrently (plan operators keep all execution
	// state on the stack). Two readers racing on a cold cache may both
	// compile; compilation is deterministic, so either result serves.
	plans sync.Map // view name -> *plan.Plan

	// routes caches routing decisions per qualified query signature, same
	// lifetime discipline as plans. Both caches are deliberately scoped to
	// the Version object, not the epoch: ApplyUpdates republishes a fresh
	// Version WITHOUT bumping the view epoch, and a route priced against
	// pre-update cardinalities (or an extent-identity route against a
	// pre-update extent) must not survive into the post-update version, so
	// every republication drops both caches together by construction.
	routes sync.Map // query signature -> *Route

	// match returns the view-match index over pcs and views, built by the
	// first route that misses the cache (sync.OnceValue), so a version that
	// is never routed against — a write-only or evolve-only publication —
	// never pays for it.
	match func() *matchIndex
}

// Seq returns the publication sequence number: strictly increasing by one
// per published version of this warehouse, starting at 1 for the initial
// (empty) version.
func (v *Version) Seq() uint64 { return v.seq }

// Epoch returns the warehouse's view-registry generation (ViewEpoch) this
// version was stamped with. Two versions share an epoch only when the view
// set and every adopted definition are identical between them; a reader
// that cached per-epoch state can compare epochs instead of re-deriving it.
func (v *Version) Epoch() uint64 { return v.epoch }

// Views returns the live views of this version in registration order.
func (v *Version) Views() []*VersionView {
	out := make([]*VersionView, 0, len(v.views))
	for _, vv := range v.views {
		if !vv.Deceased {
			out = append(out, vv)
		}
	}
	return out
}

// ViewNames lists the live view names of this version in registration
// order — the version-pinned analogue of Warehouse.ViewNames.
func (v *Version) ViewNames() []string {
	out := make([]string, 0, len(v.views))
	for _, vv := range v.views {
		if !vv.Deceased {
			out = append(out, vv.Name)
		}
	}
	return out
}

// View returns the named view of this version — live or deceased — or nil
// when the name was never registered as of this version.
func (v *Version) View(name string) *VersionView { return v.byName[name] }

// Relation returns the named base relation as captured at this version's
// commit point, or nil. Schema changes replace relation objects, so the
// returned relation reflects exactly this version's schema state.
func (v *Version) Relation(name string) *relation.Relation { return v.rels[name] }

// RelationNames lists the base relations captured at this version's commit
// point, sorted — the version-pinned analogue of Space.RelationNames, used
// by serving front-ends (eved's /relations) to describe the queryable
// schema without touching the live, mutable space.
func (v *Version) RelationNames() []string {
	out := make([]string, 0, len(v.rels))
	for name := range v.rels {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// lookup resolves a view name to its live capture, mapping unknown names to
// ErrViewNotFound and deceased views to ErrViewDeceased.
func (v *Version) lookup(name string) (*VersionView, error) {
	vv := v.byName[name]
	if vv == nil {
		return nil, fmt.Errorf("warehouse: view %q: %w", name, ErrViewNotFound)
	}
	if vv.Deceased {
		return nil, fmt.Errorf("warehouse: view %q: %w", name, ErrViewDeceased)
	}
	return vv, nil
}

// Extent returns the named live view's materialized extent at this version:
// the zero-cost read path when the maintained extent is the answer.
// Unknown names return ErrViewNotFound, deceased views ErrViewDeceased.
func (v *Version) Extent(name string) (*relation.Relation, error) {
	vv, err := v.lookup(name)
	if err != nil {
		return nil, err
	}
	return vv.Extent, nil
}

// Evaluate computes the named live view over this version's captured base
// relations — the serving read path. The definition is compiled into a
// physical plan on first use and cached for the version's lifetime (plans
// are immutable per epoch), so the steady-state cost is one plan execution
// with no recompilation; any number of readers may Evaluate concurrently
// with each other and with the evolution writer. Cancellation follows
// exec.Evaluate's contract: ctx.Err() and no partial extent.
func (v *Version) Evaluate(ctx context.Context, name string) (*relation.Relation, error) {
	vv, err := v.lookup(name)
	if err != nil {
		return nil, err
	}
	if p, ok := v.plans.Load(name); ok {
		return p.(*plan.Plan).Execute(ctx)
	}
	p, err := plan.CompileCatalog(vv.Def, versionCatalog{v})
	if err != nil {
		return nil, err
	}
	v.plans.Store(name, p)
	return p.Execute(ctx)
}

// Plan compiles (without caching) the physical plan Evaluate would run for
// the named live view at this version — the cache-bypassing form, for
// benchmarking the plan cache and for Explain-style debugging.
func (v *Version) Plan(name string) (*plan.Plan, error) {
	vv, err := v.lookup(name)
	if err != nil {
		return nil, err
	}
	return plan.CompileCatalog(vv.Def, versionCatalog{v})
}

// versionCatalog adapts a Version's captured relations and statistics to
// plan.Catalog, so plans compile against the immutable snapshot instead of
// the live space and its (mutable) MKB.
type versionCatalog struct{ v *Version }

func (c versionCatalog) Relation(name string) *relation.Relation { return c.v.rels[name] }

func (c versionCatalog) EstCard(name string) int { return c.v.cards[name] }

func (c versionCatalog) Selectivities() (float64, float64) { return c.v.sigma, c.v.js }

// Acquire returns the latest published warehouse version: one atomic load,
// no locks, never nil. The returned version is immutable under evolution —
// see Version for the exact contract — so a reader can serve any number of
// reads from it and upgrade whenever it likes by acquiring again.
func (w *Warehouse) Acquire() *Version { return w.published.Load() }

// PublishVersion assembles the warehouse's current state into an immutable
// Version and publishes it as the new serving snapshot, stamped with the
// current ViewEpoch. Every writer path publishes for itself; this is for a
// caller that changed something a Version captures outside them — a harness
// editing the space directly — and must only be called from the single
// evolution writer while no pass is mid-flight. The parameter is ignored.
func (w *Warehouse) PublishVersion(*Snapshot) *Version { return w.publish() }

// publish captures the registry, the space's relation set, and the MKB
// statistics into a fresh Version and swaps it in atomically.
func (w *Warehouse) publish() *Version {
	mkb := w.Space.MKB()
	v := &Version{
		seq:    w.versionSeq.Add(1),
		epoch:  w.viewEpoch.Load(),
		cfg:    w.cfg,
		byName: make(map[string]*VersionView),
		rels:   make(map[string]*relation.Relation),
		cards:  make(map[string]int),
		sigma:  mkb.DefaultSelectivity,
		js:     mkb.DefaultJoinSelectivity,
	}
	for _, name := range w.Space.RelationNames() {
		v.rels[name] = w.Space.Relation(name)
	}
	for _, info := range mkb.Relations() {
		v.cards[info.Ref.Rel] = info.Card
	}
	v.pcs = append([]misd.PCConstraint(nil), mkb.AllPCConstraints()...)
	w.regMu.RLock()
	order := append([]string(nil), w.order...)
	views := make(map[string]*View, len(w.views))
	for name, view := range w.views {
		views[name] = view
	}
	w.regMu.RUnlock()
	live := make(map[string]bool, len(order))
	for _, name := range order {
		live[name] = true
	}
	add := func(name string, view *View) {
		vv := &VersionView{
			Name:     name,
			Def:      view.Def,
			Extent:   view.Extent,
			History:  view.History[:len(view.History):len(view.History)],
			Deceased: view.Deceased,
		}
		v.views = append(v.views, vv)
		v.byName[name] = vv
	}
	// Live views first, in registration order; then the deceased corpses
	// (reachable through View for post-mortem reads, skipped by Views),
	// sorted so a version's layout is deterministic.
	for _, name := range order {
		add(name, views[name])
	}
	var dead []string
	for name := range views {
		if !live[name] {
			dead = append(dead, name)
		}
	}
	sort.Strings(dead)
	for _, name := range dead {
		add(name, views[name])
	}
	v.match = sync.OnceValue(func() *matchIndex { return newMatchIndex(v.pcs, v.views) })
	w.published.Store(v)
	return v
}
