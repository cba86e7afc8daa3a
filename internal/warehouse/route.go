package warehouse

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/esql"
	"repro/internal/exec"
	"repro/internal/misd"
	"repro/internal/plan"
	"repro/internal/relation"
)

// Transparent MV query routing: accept any esql SELECT and answer it from
// the cheapest source the version can prove correct — a live view's
// materialized extent verbatim, the extent plus a residual filter/project,
// or recomputation from base relations. Correctness rests on the misd
// containment machinery (clause implication plus PC-Equal relation
// substitution against the version-captured constraint snapshot); cost rests
// on the same page-I/O model Section 6 prices maintenance in
// (core.CostModel.RoutePages), so "answer from the view" and "maintain the
// view" are decisions of one model. Routing runs entirely against an
// immutable Version, so queries route lock-free while evolution publishes
// new versions underneath.

// RouteKind classifies how a routed query is answered.
type RouteKind int

// Route kinds, cheapest-possible first: a verbatim extent read, an extent
// scan with residual operators, recomputation from base relations.
const (
	// RouteBase answers the query from base relations — the fallback that
	// is always available and always correct.
	RouteBase RouteKind = iota
	// RouteViewExtent answers the query by returning a view's maintained
	// extent verbatim (the query is equivalent to the view definition).
	RouteViewExtent
	// RouteViewResidual answers the query by a residual filter/project over
	// a view's maintained extent.
	RouteViewResidual
)

// String renders the route kind for logs and the /query endpoint.
func (k RouteKind) String() string {
	switch k {
	case RouteViewExtent:
		return "view-extent"
	case RouteViewResidual:
		return "view-residual"
	default:
		return "base"
	}
}

// Route is a priced, executable answer plan for one query at one version.
// Routes are immutable once built and safe for concurrent Execute.
type Route struct {
	// Kind says how the query is answered.
	Kind RouteKind
	// View names the backing view for view-backed routes; empty for base.
	View string
	// Cost is the chosen route's estimated page cost under the version's
	// cost model.
	Cost float64
	// BaseCost is the base-relation plan's estimated page cost — the price
	// the route was compared against.
	BaseCost float64

	out    string
	extent *relation.Relation
	plan   *plan.Plan
}

// Execute runs the route and returns the query result. Extent-identity
// routes return the maintained extent (renamed to the query) without
// touching a single operator; the others execute their compiled plan with
// plan.Execute's cancellation contract.
func (r *Route) Execute(ctx context.Context) (*relation.Relation, error) {
	if r.plan != nil {
		return r.plan.Execute(ctx)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return r.extent.Rebind(r.out, r.extent.Schema())
}

// RouteQuery parses sql as an ad-hoc SELECT (esql.ParseQuery), qualifies it
// against this version's base relations, and returns the cheapest provably
// correct route. Decisions are cached per query name and qualified query
// signature for the version's lifetime (a Route names its result); the
// route cache dies with the version, so every republication — including
// data updates, which republish without an epoch bump — invalidates it. A
// miss reuses the match proof of the query's shape while the epoch and the
// PC set stand, re-checks it against the query's constants, prices every
// candidate from its plan template under this version's cardinalities, and
// binds the winner's plan alone (routeMemo).
func (v *Version) RouteQuery(sql string) (*Route, error) {
	q, err := esql.ParseQuery(sql)
	if err != nil {
		return nil, err
	}
	return v.RouteDef(q)
}

// RouteDef routes an already-parsed query definition — the programmatic
// twin of RouteQuery, for queries whose constants the SQL surface cannot
// spell (NaN, negative numbers). The definition is cloned before
// qualification, so the caller's copy is never mutated.
func (v *Version) RouteDef(q *esql.ViewDef) (*Route, error) {
	qq, err := v.qualify(q)
	if err != nil {
		return nil, err
	}
	key := routeKey{name: qq.Name, sig: qq.Signature()}
	if r, ok := v.routes.Load(key); ok {
		return r.(*Route), nil
	}
	r, err := v.route(qq, v.memo)
	if err != nil {
		return nil, err
	}
	v.routes.Store(key, r)
	return r, nil
}

// routeKey keys a Version's route cache: the query's signature, which
// leaves its name out, and the name its Route hands its result.
type routeKey struct{ name, sig string }

// qualify resolves q's attribute references against this version's base
// relations, on a clone.
func (v *Version) qualify(q *esql.ViewDef) (*esql.ViewDef, error) {
	return exec.QualifyWith(q, func(rel string) *relation.Schema {
		if r := v.rels[rel]; r != nil {
			return r.Schema()
		}
		return nil
	})
}

// Query parses, routes, and executes sql at this version — the one-call
// serving surface behind System.Query and eved's /query endpoint. The
// routed execution (decision plus run, parse excluded) is timed and
// reported as PhaseQuery to the warehouse's observer.
func (v *Version) Query(ctx context.Context, sql string) (*relation.Relation, error) {
	q, err := esql.ParseQuery(sql)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	r, err := v.RouteDef(q)
	if err != nil {
		return nil, err
	}
	res, err := r.Execute(ctx)
	if err != nil {
		return nil, err
	}
	v.cfg.Observer.OnPhase(PhaseQuery, time.Since(start))
	return res, nil
}

// route prices the base-relation plan and the candidate rewriting over
// every view the query's match proof keeps, returning the cheapest with
// only its plan bound. The base plan is the correctness anchor: it always
// exists (qualification already proved every FROM relation is a base
// relation of this version). A view route beats base on cost ties — the
// extent is maintained precisely to be read — while among views a later
// view must be strictly cheaper, so registration order breaks ties
// deterministically. Proofs and plan templates come from memo.
func (v *Version) route(qq *esql.ViewDef, memo *routeMemo) (*Route, error) {
	base, err := memo.plans.Prepare(qq, versionCatalog{v})
	if err != nil {
		return nil, fmt.Errorf("warehouse: route %s: %w", qq.Name, err)
	}
	cm := v.cfg.Cost
	var counts [16]int
	best, bestPlan := &Route{Kind: RouteBase, Cost: cm.RoutePages(base.EstRowCounts(counts[:0]))}, base
	best.BaseCost = best.Cost
	proof := memo.proof(v, qq)
	for i := range proof {
		r, p := v.readView(qq, &proof[i], cm, &memo.plans)
		if r == nil {
			continue
		}
		if r.Cost < best.Cost || (best.Kind == RouteBase && r.Cost == best.Cost) {
			r.BaseCost = best.BaseCost
			best, bestPlan = r, p
		}
	}
	if best.Kind != RouteViewExtent {
		best.plan = bestPlan.Plan()
	}
	return best, nil
}

// routeMemo is what routing memoizes across a warehouse's Versions: a plan
// template per query shape, and a match proof per query shape, epoch and
// PC-set generation — all a proof reads but the query's constants. Neither
// holds data, so a data-only publication keeps both. Up to proofCap
// proofs; one more starts them over. The zero routeMemo is ready and safe
// for concurrent use.
type routeMemo struct {
	plans   plan.Memo
	mu      sync.Mutex
	proofs  map[string][]viewProof // epoch, PC-set generation, then the qualified shape
	derived int                    // proofs derived, one per miss
}

const proofCap = 512

// proof returns qq's match proof at v, deriving and memoizing it on a miss.
func (m *routeMemo) proof(v *Version, qq *esql.ViewDef) []viewProof {
	var stack [512]byte
	key := binary.BigEndian.AppendUint64(stack[:0], v.epoch)
	key = binary.BigEndian.AppendUint64(key, v.pcGen)
	key = qq.AppendShape(key)
	m.mu.Lock()
	proof, ok := m.proofs[string(key)]
	m.mu.Unlock()
	if ok {
		return proof
	}
	for _, vv := range v.match().candidates(qq.From) {
		if vp := proveView(qq, vv, v.pcs); len(vp.assigns) > 0 {
			proof = append(proof, vp)
		}
	}
	m.mu.Lock()
	if len(m.proofs) >= proofCap || m.proofs == nil {
		m.proofs = make(map[string][]viewProof)
	}
	m.proofs[string(key)] = proof
	m.derived++
	m.mu.Unlock()
	return proof
}

// matchIndex prunes view matching to the views that could match at all.
// classes maps each base relation to the representative of its PC-Equal
// class — the transitive closure over selection-free Equal PC constraints,
// a sound over-approximation of the substitutions misd.EqualMapping
// licenses — and byKey files every live view, in registration order, under
// the canonical key of its FROM multiset. proveView assigns query FROM
// items to view FROM items bijectively, each pair the same relation or
// EqualMapping twins, so a view filed under a different key than the
// query's provably cannot match it.
type matchIndex struct {
	classes map[string]string
	byKey   map[string][]*VersionView
}

// newMatchIndex builds the index over one version's captured PC constraints
// and views (live ones first, in registration order, as publish lays them
// out).
func newMatchIndex(pcs []misd.PCConstraint, views []*VersionView) *matchIndex {
	parent := make(map[string]string)
	var find func(string) string
	find = func(x string) string {
		p, ok := parent[x]
		if !ok || p == x {
			return x
		}
		root := find(p)
		parent[x] = root
		return root
	}
	for _, pc := range pcs {
		if pc.Rel != misd.Equal || pc.Left.HasSelection() || pc.Right.HasSelection() {
			continue
		}
		// The smaller name roots the class, so representatives (and hence
		// keys) do not depend on constraint order.
		ra, rb := find(pc.Left.Rel.Key()), find(pc.Right.Rel.Key())
		if rb < ra {
			ra, rb = rb, ra
		}
		parent[rb] = ra
	}
	for x := range parent {
		parent[x] = find(x)
	}
	idx := &matchIndex{classes: parent, byKey: make(map[string][]*VersionView)}
	for _, vv := range views {
		if !vv.Deceased {
			key := idx.fromKey(vv.Def.From)
			idx.byKey[key] = append(idx.byKey[key], vv)
		}
	}
	return idx
}

// fromKey canonicalizes a FROM clause: every relation replaced by its class
// representative, sorted, joined.
func (idx *matchIndex) fromKey(from []esql.FromItem) string {
	reps := make([]string, len(from))
	for i, f := range from {
		reps[i] = f.Rel
		if c, ok := idx.classes[f.Rel]; ok {
			reps[i] = c
		}
	}
	sort.Strings(reps)
	return strings.Join(reps, "\x00")
}

// candidates returns the live views whose FROM key equals the query's, in
// registration order.
func (idx *matchIndex) candidates(from []esql.FromItem) []*VersionView {
	return idx.byKey[idx.fromKey(from)]
}

// routeOption is one admissible FROM assignment choice: view FROM position
// j, reached either directly (attrMap nil) or through a PC-Equal attribute
// mapping from the query relation's attributes to the view relation's.
type routeOption struct {
	j       int
	attrMap map[string]string
}

// maxAssignments caps the FROM assignments a proof keeps per view: k
// bindings of one relation have k! of them. Past it the view is no
// candidate, and base still answers.
const maxAssignments = 64

// viewProof is one view's share of a query shape's match proof: its WHERE
// conjunction and the first maxAssignments bijective FROM assignments of
// the query onto it, in search order, less those no constant can make
// sound.
type viewProof struct {
	name    string
	clauses []esql.Clause
	assigns []assignment
}

// assignment is what one FROM assignment proves of a query shape; a read
// fills in the constants.
type assignment struct {
	where    []esql.Clause // the query conjunction over the view's bindings
	exposed  []esql.Clause // each where clause over the view's outputs; zero when not exposed
	residual esql.ViewDef  // the residual query's SELECT and FROM over the extent
	identity bool          // the query SELECT is the view's, column for column
}

// proveView derives the structural half of answering qq from vv under the
// PC constraints pcs: the FROM assignments, each with its translated
// clauses and outputs. It reads neither the query's constants nor any data.
func proveView(qq *esql.ViewDef, vv *VersionView, pcs []misd.PCConstraint) viewProof {
	vd := vv.Def
	vp := viewProof{name: vv.Name}
	if len(qq.From) != len(vd.From) {
		return vp
	}
	for _, w := range vd.Where {
		vp.clauses = append(vp.clauses, w.Clause)
	}
	// Attributes the query needs from each of its FROM bindings — the
	// coverage obligation a PC-Equal substitution must meet.
	needed := make(map[string][]string, len(qq.From))
	record := func(ref esql.AttrRef) {
		if ref.Attr == "" {
			return
		}
		for _, a := range needed[ref.Rel] {
			if a == ref.Attr {
				return
			}
		}
		needed[ref.Rel] = append(needed[ref.Rel], ref.Attr)
	}
	for _, s := range qq.Select {
		record(s.Attr)
	}
	for _, c := range qq.Where {
		record(c.Clause.Left)
		record(c.Clause.Right)
	}

	// options[i] lists the view FROM positions query FROM position i may be
	// assigned to: the same base relation (identity attribute map), or a
	// PC-Equal twin covering every needed attribute (positional map).
	options := make([][]routeOption, len(qq.From))
	for i, qf := range qq.From {
		for j, vf := range vd.From {
			if vf.Rel == qf.Rel {
				options[i] = append(options[i], routeOption{j: j})
				continue
			}
			if m, ok := misd.EqualMapping(pcs, qf.Rel, vf.Rel, needed[qf.Binding()]); ok {
				options[i] = append(options[i], routeOption{j: j, attrMap: m})
			}
		}
		if len(options[i]) == 0 {
			return vp
		}
	}

	// Enumerate bijective FROM assignments in a deterministic order, so a
	// read's first sound assignment — and so routing — is deterministic too.
	assign := make([]routeOption, len(qq.From))
	used := make([]bool, len(vd.From))
	tried := 0
	var search func(i int)
	search = func(i int) {
		if i == len(qq.From) {
			tried++
			if a, ok := proveAssignment(qq, vv, assign); ok {
				vp.assigns = append(vp.assigns, a)
			}
			return
		}
		for _, opt := range options[i] {
			if tried == maxAssignments {
				return
			}
			if !used[opt.j] {
				used[opt.j] = true
				assign[i] = opt
				search(i + 1)
				used[opt.j] = false
			}
		}
	}
	search(0)
	return vp
}

// proveAssignment translates qq through one complete FROM assignment onto
// vv, or reports false when some query clause or output reads an attribute
// the assignment does not map, or a SELECT attribute the view does not
// expose — failures no constant can mend.
func proveAssignment(qq *esql.ViewDef, vv *VersionView, assign []routeOption) (assignment, bool) {
	vd := vv.Def
	bindingIdx := make(map[string]int, len(qq.From))
	for i, qf := range qq.From {
		bindingIdx[qf.Binding()] = i
	}
	translate := func(ref esql.AttrRef) (esql.AttrRef, bool) {
		i, ok := bindingIdx[ref.Rel]
		if !ok {
			return esql.AttrRef{}, false
		}
		a := ref.Attr
		if m := assign[i].attrMap; m != nil {
			va, ok := m[a]
			if !ok {
				return esql.AttrRef{}, false
			}
			a = va
		}
		return esql.AttrRef{Rel: vd.From[assign[i].j].Binding(), Attr: a}, true
	}
	output := func(ref esql.AttrRef) (esql.AttrRef, bool) {
		for _, s := range vd.Select {
			if s.Attr == ref {
				return esql.AttrRef{Rel: vv.Name, Attr: s.OutputName()}, true
			}
		}
		return esql.AttrRef{}, false
	}
	a := assignment{where: make([]esql.Clause, len(qq.Where)), exposed: make([]esql.Clause, len(qq.Where))}
	for k, c := range qq.Where {
		tc := c.Clause
		var ok bool
		if tc.Left, ok = translate(tc.Left); !ok {
			return a, false
		}
		if tc.Right.Attr != "" {
			if tc.Right, ok = translate(tc.Right); !ok {
				return a, false
			}
		}
		a.where[k] = tc
		rc := tc
		rc.Left, ok = output(tc.Left)
		exposed := ok
		if tc.Right.Attr != "" {
			rc.Right, ok = output(tc.Right)
			exposed = exposed && ok
		}
		if exposed {
			a.exposed[k] = rc
		}
	}
	a.residual.From = []esql.FromItem{{Rel: vv.Name}}
	a.identity = len(qq.Select) == len(vd.Select)
	for i, s := range qq.Select {
		ref, ok := translate(s.Attr)
		if !ok {
			return a, false
		}
		if ref, ok = output(ref); !ok {
			return a, false
		}
		a.residual.Select = append(a.residual.Select, esql.SelectItem{Attr: ref, Alias: s.OutputName()})
		a.identity = a.identity && ref.Attr == vd.Select[i].OutputName() && s.OutputName() == ref.Attr
	}
	return a, true
}

// readView answers qq from vp's view at v through the first assignment
// whose obligations hold under qq's constants, or returns nil:
//
//  1. containment — every view WHERE clause is implied by the translated
//     query conjunction, so the extent keeps every row the query needs;
//  2. residual coverage — every query clause the view's WHERE does not
//     enforce is exposed, a predicate over the view's outputs.
//
// With no residual and the outputs coinciding column for column, the
// extent is the answer (RouteViewExtent); otherwise the residual
// filter/project over the extent (RouteViewResidual) is prepared and
// priced through plans, and returned unbound.
func (v *Version) readView(qq *esql.ViewDef, vp *viewProof, cm core.CostModel, plans *plan.Memo) (*Route, plan.Prepared) {
	vv := v.byName[vp.name]
	tq := make([]esql.Clause, len(qq.Where))
next:
	for _, a := range vp.assigns {
		for k, c := range a.where {
			c.Const = qq.Where[k].Clause.Const
			tq[k] = c
		}
		for _, w := range vp.clauses {
			if !misd.ImpliedBy(tq, w) {
				continue next
			}
		}
		residual := make([]esql.CondItem, 0, len(tq))
		for k, tc := range tq {
			if misd.ImpliedBy(vp.clauses, tc) {
				continue
			}
			rc := a.exposed[k]
			if rc.Left.Rel == "" {
				continue next
			}
			rc.Const = tc.Const
			residual = append(residual, esql.CondItem{Clause: rc})
		}
		if len(residual) == 0 && a.identity {
			return &Route{Kind: RouteViewExtent, View: vv.Name, Cost: cm.ScanPages(vv.Extent.Card()), out: qq.Name, extent: vv.Extent}, plan.Prepared{}
		}
		res := a.residual
		res.Name, res.Where = qq.Name, residual
		p, err := plans.Prepare(&res, plan.FixedCatalog{
			Rels:  map[string]*relation.Relation{vv.Name: vv.Extent},
			Sigma: v.sigma,
			JS:    v.js,
		})
		if err != nil {
			continue
		}
		var counts [16]int
		return &Route{Kind: RouteViewResidual, View: vv.Name, Cost: cm.RoutePages(p.EstRowCounts(counts[:0])), out: qq.Name}, p
	}
	return nil, plan.Prepared{}
}
