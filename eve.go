// Package eve is the public API of the EVE / QC-Model reproduction: an
// evolvable view environment that keeps materialized views alive when the
// information sources underneath them change their schemas, and ranks the
// alternative (generally non-equivalent) query rewritings by trading off
// quality (degree of divergence from the original view) against long-term
// incremental maintenance cost.
//
// The implementation follows Lee, Koeller, Nica, and Rundensteiner,
// "Data Warehouse Evolution: Trade-offs between Quality and Cost of Query
// Rewritings" (WPI-CS-TR-98-2 / ICDE 1999).
//
// # Quickstart
//
//	sp := eve.NewSpace()
//	if _, err := sp.AddSource("IS1"); err != nil { ... }
//	// ... add relations and MKB constraints to sp ...
//	sys, err := eve.New(eve.WithSpace(sp)) // defaults otherwise; see Option
//	if err != nil { ... }
//	view, err := sys.DefineView(context.Background(), `CREATE VIEW V (VE = ~) AS
//	    SELECT R.A (AD = true, AR = true) FROM R (RR = true)`)
//	if err != nil { ... }
//	results, err := sys.ApplyChange(ctx, eve.DeleteRelation("R"))
//	view = sys.Snapshot().View("V") // the adopted definition and its extent
//
// DefineView returns the view as its registration published it; every view
// read is a published Version's maintained extent, so a later state of the
// view is read from a later Snapshot.
//
// See the examples/ directory for complete programs.
//
// # The API surface
//
// Construction is option-based and validated: eve.New(eve.WithTopK(5),
// eve.WithDropVariants(true), ...) freezes a coherent configuration or
// fails with ErrInvalidOption. Every heavy entry point (ApplyChange,
// EvolveBatch, Stream, Evaluate) takes a context.Context and honors
// cancellation with an exact consistency contract: a cancelled pass either
// never landed its change or fully adopted it, and a cancelled batch keeps
// exactly its landed prefix (see System.ApplyChange). Failures surface
// through a typed taxonomy — sentinels like ErrViewNotFound and
// ErrNoRewriting for errors.Is, structured types like *ParseError and
// *ChangeError for errors.As. The pipeline is observable: WithObserver
// installs OnChange/OnSync/OnAdopt/OnDecease hooks (MetricsObserver is the
// ready-made counter set).
//
// # Serving reads during evolution
//
// The system publishes an immutable Version at every commit point (view
// registration, each synchronization pass, each data-update batch), so
// any number of reader goroutines can serve queries lock-free while the
// evolution writer runs: System.Snapshot() pins one version, and
// Version.Extent(name) answers "what is view V" with the materialized
// extent the writer maintains (Algorithm 1) — one atomic load and one map
// lookup, no evaluation. A reader never observes a half-applied pass, and
// versions it holds are never mutated by later passes (adoption is
// copy-on-write). See Version.
//
// # Data updates
//
// Base-data changes flow through System.ApplyUpdates: the batch collapses
// into net per-relation insert/delete deltas — charging each update's
// source notification exactly once — the touched base relations are
// replaced copy-on-write, and every live view's
// extent is incrementally maintained per the paper's Algorithm 1, with the
// deltas batched through the same columnar operators that compute full
// extents and folded under derivation counting. One new Version publishes
// per batch. Readers are never quiesced: a snapshot acquired before the
// batch keeps serving its captured relations and extents unchanged, and the
// updated state becomes visible by acquiring the next version. The returned
// Metrics (messages, bytes, I/Os) are the measured counterparts of the
// QC-Model's analytic maintenance-cost factors:
//
//	metrics, err := sys.ApplyUpdates(ctx, []eve.Update{
//	    eve.InsertTuple("R", eve.Tuple{eve.Int(4), eve.Int(40)}),
//	    eve.DeleteTuple("R", eve.Tuple{eve.Int(1), eve.Int(10)}),
//	})
//
// Updates addressed to a relation the space does not hold fail with
// ErrUnknownRelation.
//
// # Querying through views
//
// Beyond reading whole views, System.Query answers arbitrary E-SQL SELECTs
// and transparently routes each one to the cheapest provably correct
// source: a live view's maintained extent verbatim, the extent plus a
// residual filter/project, or recomputation from base relations.
// Correctness comes from MISD containment reasoning (clause implication and
// PC ≡ relation substitution against the version-captured constraint
// snapshot), cost from the same page-I/O model that prices maintenance, so
// "answer from the view" and "maintain the view" are one decision model:
//
//	res, err := sys.Query(ctx, "SELECT A, B FROM R WHERE A > 1")
//	r, err := sys.Snapshot().RouteQuery("SELECT A FROM R WHERE A > 1 AND B < 25")
//	// r.Kind is RouteViewExtent / RouteViewResidual / RouteBase
//
// Matching visits only the views that could match: each Version files its
// live views under a canonical key of their FROM multiset (relations
// collapsed to their PC-Equal classes), builds that index on the first
// routed read, and a query is checked against the views under its own key.
// Routing decisions are cached per version and per query signature; every
// republication (including data updates) drops the index and the route
// cache together, so a cached route never outlives the state it was priced
// against. Routed answers are continuously cross-checked against
// base-only evaluation by an order-insensitive row-checksum differential
// suite.
//
// # Execution and debugging
//
// View evaluation compiles each definition into an explicit physical plan
// (scan with zero-copy column re-binding, pushed-down filters, hash joins
// ordered by MKB cardinality, projection, set-semantics dedup; see
// internal/plan). Explain renders the plan the executor would run:
//
//	text, _ := eve.Explain(view.Def, sys.Space)
//	fmt.Println(text)
//	// Plan V
//	// Dedup → V [est=200]
//	// └─ Project [A] [est=200]
//	//    └─ Filter [R.A > 1] [est=200] ...
//
// Every capability change lands through one synchronization pass
// (warehouse.SyncPass): rank the affected views' rewritings on a bounded
// worker pool (eve.WithWorkers; default one worker per CPU), land, adopt or
// decease, publish. System.ApplyChange is the one-change pass, returning one
// row per live view in registration order; EvolveBatch and Stream add the
// session's choice of which changes skip the views or share a pass.
//
// # Rewriting search
//
// One search generates and ranks a view's legal rewritings. Base rewritings
// are scored eagerly; with WithDropVariants each base's CVS-style 2^width
// spectrum of drop-variants is streamed best-first. WithTopK(k) bounds the
// ranking to the k best candidates and branch-and-bounds the spectrum
// against the running K-th best QC score, so variants that cannot enter the
// ranking are never built — on wide views (10–20 dispensable attributes)
// orders of magnitude less work for the same winner and the same top-K
// scores. WithTopK(0), the default, is the same search unbounded: every
// legal rewriting is scored and returned, exactly the ranking the paper's
// enumerate-then-rank presentation produces (a guarantee enforced by
// differential property tests; see internal/warehouse.SearchTopK for the
// argument).
//
//	sys, _ := eve.New(eve.WithTopK(5), eve.WithDropVariants(true))
//	results, _ := sys.ApplyChange(ctx, eve.DeleteRelation("R"))
package eve

import (
	"context"
	"iter"

	"repro/internal/core"
	"repro/internal/esql"
	"repro/internal/evolve"
	"repro/internal/exec"
	"repro/internal/maintain"
	"repro/internal/misd"
	"repro/internal/relation"
	"repro/internal/space"
	"repro/internal/synchronize"
	"repro/internal/warehouse"
)

// System is the assembled EVE instance: information space + MKB + view
// knowledge base + synchronizer + QC ranker + maintainer, plus the
// evolution-session engine for batched change streams. The warehouse
// underneath is the paper's Figure 1 system; the methods below are its whole
// public surface. Writes (DefineView, RegisterView, ApplyChange,
// ApplyUpdates, EvolveBatch, Stream) belong to one writer goroutine; reads go
// through Snapshot and Query, which any number of goroutines may call
// concurrently with that writer.
type System struct {
	// Space is the information space the system evolves over. It is kept as
	// a field only for the benchmark harness in bench/, which clones it and
	// evaluates base-only answers over it; ROADMAP item 1 moves bench/ onto
	// internal/warehouse. Readers use Snapshot instead: the space is the
	// writer's live state.
	Space *space.Space

	w       *warehouse.Warehouse
	session *evolve.Session
}

// DefineView parses, qualifies, materializes, and registers an E-SQL view,
// returning the view as the registration's published Version captured it.
// ctx bounds the initial materialization scan; a cancelled registration
// registers nothing.
func (s *System) DefineView(ctx context.Context, src string) (*VersionView, error) {
	return s.w.DefineView(ctx, src)
}

// RegisterView registers an already-built definition and returns the view as
// the registration's published Version captured it. The returned view is
// immutable: read later states of the view from a later Snapshot.
func (s *System) RegisterView(ctx context.Context, def *ViewDef) (*VersionView, error) {
	return s.w.RegisterView(ctx, def)
}

// ApplyChange applies one capability change to the information space and
// synchronizes every affected view. The result has one row per view that
// was live before the change, in registration order. A cancelled or
// rejected ApplyChange did nothing; any other did everything (see
// warehouse.Warehouse.ApplyChange).
func (s *System) ApplyChange(ctx context.Context, c Change) ([]SyncResult, error) {
	return s.w.ApplyChange(ctx, c)
}

// ApplyUpdates lands a batch of data updates and incrementally maintains
// every live view (Algorithm 1), publishing one new Version per batch and
// returning the measured maintenance metrics. A view whose maintenance
// fails once the batch has landed deceases while the others are still
// maintained; the batch publishes and the error names the view. See the
// package doc, "Data updates".
func (s *System) ApplyUpdates(ctx context.Context, updates []Update) (Metrics, error) {
	return s.w.ApplyUpdates(ctx, updates)
}

// Session returns the system's evolution session, creating it on first
// use. The session persists across calls so its footprint index amortizes
// over the system's whole change history; see evolve.Session for the
// ownership contract.
func (s *System) Session() *evolve.Session {
	if s.session == nil {
		s.session = evolve.NewSession(s.w)
	}
	return s.session
}

// EvolveBatch applies a stream of capability changes through the evolution
// session: a change whose footprint misses every live view lands without
// visiting them, and compatible consecutive changes coalesce into a single
// synchronization pass, where structurally identical views share one
// rewriting search. The outcome is identical to calling ApplyChange once per
// change (the differential tests replay both); only the work is smaller.
//
// Cancelling ctx returns the landed steps with ctx.Err() within one
// coalesced pass: every returned step has fully adopted or deceased its
// affected views, and nothing after the landed prefix has touched the
// space.
func (s *System) EvolveBatch(ctx context.Context, changes []Change) ([]evolve.StepResult, error) {
	return s.Session().EvolveBatch(ctx, changes)
}

// Snapshot acquires the latest published warehouse version — the lock-free
// read surface for serving queries while the system evolves. One atomic
// load, no locks, never nil; see Version for the consistency contract (a
// reader never observes a half-applied pass, and later passes never mutate
// an acquired version). Use one Snapshot for a multi-read transaction that
// must be internally consistent; call again to pick up newer commits.
//
//	v := sys.Snapshot()
//	for _, name := range v.ViewNames() {
//	    ext, err := v.Extent(name) // all reads see one commit point
//	    ...
//	}
func (s *System) Snapshot() *Version { return s.w.Acquire() }

// Query answers an ad-hoc E-SQL SELECT against the latest published
// version, transparently routing it to the cheapest provably correct
// source — a live view's maintained extent (verbatim or with a residual
// filter/project) or the base relations. Equivalent to
// s.Snapshot().Query(ctx, sql); use Snapshot directly to inspect the
// routing decision (Version.RouteQuery) or to pin one version across
// several queries. Lock-free and safe to call concurrently with evolution.
func (s *System) Query(ctx context.Context, sql string) (*Relation, error) {
	return s.w.Acquire().Query(ctx, sql)
}

// TakeSnapshot captures the MKB's current relation cardinalities. It is a
// seam for the benchmark harness in bench/, which times it; ROADMAP item 1
// moves bench/ onto internal/warehouse.
func (s *System) TakeSnapshot() *warehouse.Snapshot { return s.w.TakeSnapshot() }

// PublishVersion republishes the current state as a new Version. It is a
// seam for the benchmark harness in bench/, which edits the space directly
// and times publication; ROADMAP item 1 moves bench/ onto
// internal/warehouse. The parameter is ignored and stays only because
// bench/ passes it. Call it from the writer goroutine only.
func (s *System) PublishVersion(snap *warehouse.Snapshot) *Version {
	return s.w.PublishVersion(snap)
}

// Stream drives the system from an unbounded change feed, yielding one
// StepResult per landed change in feed order. Consecutive compatible
// changes coalesce into single passes exactly as EvolveBatch coalesces
// them, so results lag their changes by at most one pass. The sequence
// ends after the first error (yielded as the final element): a rejected
// change (*ChangeError), an adopt failure, or ctx.Err() after a
// cancellation — with the same landed-prefix guarantee as EvolveBatch.
//
//	for step, err := range sys.Stream(ctx, feed) {
//	    if err != nil { ... }
//	    // step.Change landed; step.Results cover its affected views
//	}
func (s *System) Stream(ctx context.Context, changes iter.Seq[Change]) iter.Seq2[evolve.StepResult, error] {
	return s.Session().Stream(ctx, changes)
}

// Re-exported core types. The internal packages remain the source of truth;
// these aliases give library users one import path.
type (
	// StepResult reports one change of an evolution batch.
	StepResult = evolve.StepResult
	// EvolveSession is the evolution-session engine driving a system
	// through batched change streams (System.Session).
	EvolveSession = evolve.Session
	// SyncResult reports one view's outcome for a capability change.
	SyncResult = warehouse.SyncResult
	// Version is one immutable published warehouse state — the lock-free
	// serving snapshot System.Snapshot returns (see warehouse.Version for
	// the full consistency contract).
	Version = warehouse.Version
	// VersionView is one view captured in a Version.
	VersionView = warehouse.VersionView
	// Route is a priced, executable answer plan for one routed query
	// (Version.RouteQuery).
	Route = warehouse.Route
	// RouteKind classifies how a routed query is answered.
	RouteKind = warehouse.RouteKind

	// ViewDef is a parsed E-SQL view definition.
	ViewDef = esql.ViewDef
	// ExtentParam is the VE view-evolution parameter.
	ExtentParam = esql.ExtentParam

	// Change is a capability (schema) change at an information source.
	Change = space.Change
	// Space is the information space.
	Space = space.Space
	// Source is one information source.
	Source = space.Source

	// Relation is an in-memory set of tuples over a schema.
	Relation = relation.Relation
	// Schema describes a relation's attributes.
	Schema = relation.Schema
	// Attribute is one schema column.
	Attribute = relation.Attribute
	// Tuple is one row.
	Tuple = relation.Tuple
	// Value is one typed attribute value.
	Value = relation.Value

	// MKB is the meta knowledge base of source descriptions.
	MKB = misd.MKB
	// PCConstraint is a partial/complete information constraint.
	PCConstraint = misd.PCConstraint
	// JoinConstraint describes how two relations join meaningfully.
	JoinConstraint = misd.JoinConstraint
	// Fragment is one side of a PC constraint.
	Fragment = misd.Fragment
	// RelRef names a base relation.
	RelRef = misd.RelRef

	// Rewriting is one legal rewriting of a view.
	Rewriting = synchronize.Rewriting

	// Tradeoff holds the QC-Model's weights and trade-off parameters.
	Tradeoff = core.Tradeoff
	// CostModel holds the maintenance-cost statistics and conventions.
	CostModel = core.CostModel
	// Candidate is a scored rewriting.
	Candidate = core.Candidate
	// Ranking is the QC-ordered set of candidates.
	Ranking = core.Ranking
	// Workload is a configured workload model (M1–M4).
	Workload = core.Workload
	// Update is one base-data change routed through view maintenance.
	Update = maintain.Update
	// Delta is the net per-relation effect of a collapsed update batch.
	Delta = maintain.Delta
	// Metrics are measured maintenance costs.
	Metrics = maintain.Metrics
)

// Value constructors.
var (
	// Int builds an integer value.
	Int = relation.Int
	// Float builds a floating-point value.
	Float = relation.Float
	// Str builds a string value.
	Str = relation.String
	// Bool builds a boolean value.
	Bool = relation.Bool
)

// Workload model identifiers (Section 6.6).
const (
	M1 = core.M1
	M2 = core.M2
	M3 = core.M3
	M4 = core.M4
)

// VE parameter values (Figure 3).
const (
	ExtentAny      = esql.ExtentAny
	ExtentEqual    = esql.ExtentEqual
	ExtentSuperset = esql.ExtentSuperset
	ExtentSubset   = esql.ExtentSubset
)

// PC containment relations.
const (
	Subset   = misd.Subset
	Equal    = misd.Equal
	Superset = misd.Superset
)

// Query route kinds (Version.RouteQuery).
const (
	RouteBase         = warehouse.RouteBase
	RouteViewExtent   = warehouse.RouteViewExtent
	RouteViewResidual = warehouse.RouteViewResidual
)

// Attribute types.
const (
	TypeInt    = relation.TypeInt
	TypeFloat  = relation.TypeFloat
	TypeString = relation.TypeString
	TypeBool   = relation.TypeBool
)

// NewSpace creates an empty information space with its MKB.
func NewSpace() *Space { return space.New() }

// NewSchema builds a schema; it panics on duplicate attribute names.
func NewSchema(attrs ...Attribute) *Schema { return relation.NewSchema(attrs...) }

// NewRelation creates an empty open relation: fill it with Insert, then
// register it (Space.AddRelation), which seals it.
func NewRelation(name string, schema *Schema) *Relation { return relation.New(name, schema) }

// ParseView parses an E-SQL CREATE VIEW statement.
func ParseView(src string) (*ViewDef, error) { return esql.Parse(src) }

// MustParseView is ParseView that panics on error, for fixtures and tests.
func MustParseView(src string) *ViewDef { return esql.MustParse(src) }

// PrintView renders a view definition back to E-SQL.
func PrintView(v *ViewDef) string { return esql.Print(v) }

// ParseQuery parses an ad-hoc E-SQL SELECT (no CREATE VIEW header) into a
// definition suitable for System.Query routing or Evaluate.
func ParseQuery(src string) (*ViewDef, error) { return esql.ParseQuery(src) }

// MustParseQuery is ParseQuery that panics on error, for fixtures and tests.
func MustParseQuery(src string) *ViewDef { return esql.MustParseQuery(src) }

// Evaluate materializes a view over a space (the Query Executor). The view
// is compiled to a physical plan (internal/plan) and executed; ctx is
// observed between plan operators and every few thousand tuples inside
// them, so cancelling a long evaluation returns ctx.Err() promptly and no
// partial extent.
func Evaluate(ctx context.Context, v *ViewDef, sp *Space) (*Relation, error) {
	return exec.Evaluate(ctx, v, sp)
}

// Explain renders the physical plan Evaluate would run for the view — one
// operator per line with cardinality estimates, for debugging and tests.
func Explain(v *ViewDef, sp *Space) (string, error) { return exec.Explain(v, sp) }

// DefaultTradeoff returns the paper's default parameters.
func DefaultTradeoff() Tradeoff { return core.DefaultTradeoff() }

// DefaultCostModel returns Table 1's statistics with the paper's accounting
// conventions.
func DefaultCostModel() CostModel { return core.DefaultCostModel() }

// DeleteRelation builds a delete-relation capability change.
func DeleteRelation(rel string) Change {
	return Change{Kind: space.DeleteRelation, Rel: rel}
}

// DeleteAttribute builds a delete-attribute capability change.
func DeleteAttribute(rel, attr string) Change {
	return Change{Kind: space.DeleteAttribute, Rel: rel, Attr: attr}
}

// RenameRelation builds a change-relation-name capability change.
func RenameRelation(rel, newName string) Change {
	return Change{Kind: space.RenameRelation, Rel: rel, NewName: newName}
}

// RenameAttribute builds a change-attribute-name capability change.
func RenameAttribute(rel, attr, newName string) Change {
	return Change{Kind: space.RenameAttribute, Rel: rel, Attr: attr, NewName: newName}
}

// AddAttribute builds an add-attribute capability change.
func AddAttribute(rel, attr string, t relation.Type) Change {
	return Change{Kind: space.AddAttribute, Rel: rel, Attr: attr, AttrType: t}
}

// InsertTuple builds an insert data update for routing through maintenance.
func InsertTuple(rel string, t Tuple) Update {
	return Update{Kind: maintain.Insert, Rel: rel, Tuple: t}
}

// DeleteTuple builds a delete data update.
func DeleteTuple(rel string, t Tuple) Update {
	return Update{Kind: maintain.Delete, Rel: rel, Tuple: t}
}
