package warehouse

import (
	"context"
	"fmt"
	"sort"
	"strings"
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
// correct route. Decisions are cached per qualified query signature for the
// version's lifetime; the route cache dies with the version, so every
// republication — including data updates, which republish without an epoch
// bump — invalidates it. A miss binds the memoized plan templates of a
// known query shape instead of compiling (plan.Memo).
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
	key := qq.Signature()
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
// every live view the match index files under the query's FROM key,
// returning the cheapest. The base plan is the correctness anchor: it
// always exists (qualification already proved every FROM relation is a base
// relation of this version). A view route beats base on cost ties — the
// extent is maintained precisely to be read — while among views a later
// view must be strictly cheaper, so registration order breaks ties
// deterministically. Plans are compiled through memo.
func (v *Version) route(qq *esql.ViewDef, memo *plan.Memo) (*Route, error) {
	base, err := memo.Compile(qq, versionCatalog{v})
	if err != nil {
		return nil, fmt.Errorf("warehouse: route %s: %w", qq.Name, err)
	}
	cm := v.cfg.Cost
	best := &Route{Kind: RouteBase, plan: base, Cost: cm.RoutePages(base.EstRowCounts())}
	best.BaseCost = best.Cost
	for _, vv := range v.match().candidates(qq.From) {
		r := v.viewRoute(qq, vv, cm, memo)
		if r == nil {
			continue
		}
		if r.Cost < best.Cost || (best.Kind == RouteBase && r.Cost == best.Cost) {
			r.BaseCost = best.BaseCost
			best = r
		}
	}
	return best, nil
}

// matchIndex prunes view matching to the views that could match at all.
// classes maps each base relation to the representative of its PC-Equal
// class — the transitive closure over selection-free Equal PC constraints,
// a sound over-approximation of the substitutions misd.EqualMapping
// licenses — and byKey files every live view, in registration order, under
// the canonical key of its FROM multiset. viewRoute assigns query FROM
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

// maxAssignments caps the FROM assignments viewRoute checks per view: k
// bindings of one relation have k! of them. Past it the view is no
// candidate, and base still answers.
const maxAssignments = 64

// viewRoute tries to answer qq from one view and prices the result, or
// returns nil when no provably correct rewriting over this view exists
// among the first maxAssignments FROM assignments.
func (v *Version) viewRoute(qq *esql.ViewDef, vv *VersionView, cm core.CostModel, memo *plan.Memo) *Route {
	vd := vv.Def
	if len(qq.From) != len(vd.From) {
		return nil
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
			if m, ok := misd.EqualMapping(v.pcs, qf.Rel, vf.Rel, needed[qf.Binding()]); ok {
				options[i] = append(options[i], routeOption{j: j, attrMap: m})
			}
		}
		if len(options[i]) == 0 {
			return nil
		}
	}

	// Backtrack over bijective FROM assignments; the first assignment whose
	// predicate containment and output-coverage checks pass wins (the search
	// order is deterministic, so routing is too).
	assign := make([]routeOption, len(qq.From))
	used := make([]bool, len(vd.From))
	tried := 0
	var search func(i int) *Route
	search = func(i int) *Route {
		if i == len(qq.From) {
			tried++
			return v.checkMatch(qq, vv, assign, cm, memo)
		}
		for _, opt := range options[i] {
			if used[opt.j] {
				continue
			}
			if tried == maxAssignments {
				return nil
			}
			used[opt.j] = true
			assign[i] = opt
			if r := search(i + 1); r != nil {
				used[opt.j] = false
				return r
			}
			used[opt.j] = false
		}
		return nil
	}
	return search(0)
}

// checkMatch verifies one complete FROM assignment and, when sound, builds
// the priced route. Soundness obligations, in order:
//
//  1. containment — every view WHERE clause is implied by the translated
//     query conjunction, so the extent keeps every row the query needs;
//  2. residual coverage — every query clause not already enforced by the
//     view's WHERE translates to a predicate over exposed view outputs;
//  3. output coverage — every query SELECT attribute is an exposed output.
//
// When the residual is empty and the outputs coincide column-for-column the
// extent itself is the answer (RouteViewExtent); otherwise the residual
// filter/project is compiled over the extent as a one-relation catalog
// (RouteViewResidual).
func (v *Version) checkMatch(qq *esql.ViewDef, vv *VersionView, assign []routeOption, cm core.CostModel, memo *plan.Memo) *Route {
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
	// Translate the query conjunction into the view's binding space.
	tq := make([]esql.Clause, 0, len(qq.Where))
	for _, c := range qq.Where {
		tc := c.Clause
		left, ok := translate(tc.Left)
		if !ok {
			return nil
		}
		tc.Left = left
		if tc.Right.Attr != "" {
			right, ok := translate(tc.Right)
			if !ok {
				return nil
			}
			tc.Right = right
		}
		tq = append(tq, tc)
	}
	// 1. The extent must contain every query row.
	for _, w := range vd.Where {
		if !misd.ImpliedBy(tq, w.Clause) {
			return nil
		}
	}
	viewClauses := make([]esql.Clause, len(vd.Where))
	for i, w := range vd.Where {
		viewClauses[i] = w.Clause
	}
	outputOf := func(ref esql.AttrRef) (string, bool) {
		for _, s := range vd.Select {
			if s.Attr == ref {
				return s.OutputName(), true
			}
		}
		return "", false
	}
	// 2. Residual clauses must be checkable over exposed outputs.
	var residual []esql.Clause
	for _, tc := range tq {
		if misd.ImpliedBy(viewClauses, tc) {
			continue
		}
		rc := tc
		col, ok := outputOf(rc.Left)
		if !ok {
			return nil
		}
		rc.Left = esql.AttrRef{Rel: vv.Name, Attr: col}
		if rc.Right.Attr != "" {
			col, ok := outputOf(rc.Right)
			if !ok {
				return nil
			}
			rc.Right = esql.AttrRef{Rel: vv.Name, Attr: col}
		}
		residual = append(residual, rc)
	}
	// 3. Every query output must be an exposed output.
	selectCols := make([]string, len(qq.Select))
	for i, s := range qq.Select {
		ref, ok := translate(s.Attr)
		if !ok {
			return nil
		}
		col, ok := outputOf(ref)
		if !ok {
			return nil
		}
		selectCols[i] = col
	}

	identity := len(residual) == 0 && len(qq.Select) == len(vd.Select)
	if identity {
		for i := range qq.Select {
			if selectCols[i] != vd.Select[i].OutputName() ||
				qq.Select[i].OutputName() != selectCols[i] {
				identity = false
				break
			}
		}
	}
	if identity {
		return &Route{
			Kind:   RouteViewExtent,
			View:   vv.Name,
			Cost:   cm.ScanPages(vv.Extent.Card()),
			out:    qq.Name,
			extent: vv.Extent,
		}
	}

	res := &esql.ViewDef{
		Name: qq.Name,
		From: []esql.FromItem{{Rel: vv.Name}},
	}
	for i, s := range qq.Select {
		res.Select = append(res.Select, esql.SelectItem{
			Attr:  esql.AttrRef{Rel: vv.Name, Attr: selectCols[i]},
			Alias: s.OutputName(),
		})
	}
	for _, rc := range residual {
		res.Where = append(res.Where, esql.CondItem{Clause: rc})
	}
	p, err := memo.Compile(res, plan.FixedCatalog{
		Rels:  map[string]*relation.Relation{vv.Name: vv.Extent},
		Sigma: v.sigma,
		JS:    v.js,
	})
	if err != nil {
		return nil
	}
	return &Route{
		Kind: RouteViewResidual,
		View: vv.Name,
		Cost: cm.RoutePages(p.EstRowCounts()),
		out:  qq.Name,
		plan: p,
	}
}
