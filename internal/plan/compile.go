package plan

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/esql"
	"repro/internal/relation"
	"repro/internal/space"
)

// Catalog is what compiling reads of its data source: relations,
// cardinality estimates and default selectivities — of a live space
// (spaceCatalog) or of a published warehouse version's snapshot.
type Catalog interface {
	// Relation resolves a relation name, or returns nil when unknown.
	Relation(name string) *relation.Relation
	// EstCard returns the advertised cardinality estimate for the relation
	// (zero or negative means "use the relation's actual cardinality").
	EstCard(name string) int
	// Selectivities returns the default local selectivity σ and join
	// selectivity; out-of-range values fall back to the paper's Table 1
	// defaults inside CompileCatalog.
	Selectivities() (sigma, js float64)
}

// spaceCatalog adapts a live space (relations + MKB statistics) to Catalog.
type spaceCatalog struct{ sp *space.Space }

func (c spaceCatalog) Relation(name string) *relation.Relation { return c.sp.Relation(name) }

func (c spaceCatalog) EstCard(name string) int {
	if info := c.sp.MKB().Relation(name); info != nil {
		return info.Card
	}
	return 0
}

func (c spaceCatalog) Selectivities() (float64, float64) {
	return c.sp.MKB().DefaultSelectivity, c.sp.MKB().DefaultJoinSelectivity
}

// Compile builds a physical plan for a fully qualified view (exec.Qualify
// output) over a space. Constant and intra-relation predicates are pushed
// below the joins, equi-join clauses become hash-join keys, and the join
// order follows MKB cardinalities (smallest first, preferring equi-join
// connected inputs over cross products).
func Compile(q *esql.ViewDef, sp *space.Space) (*Plan, error) {
	return CompileCatalog(q, spaceCatalog{sp})
}

// CompileCatalog is Compile over an explicit Catalog — the general entry
// point for compiling against something other than a live space, e.g. a
// published warehouse version's immutable relation snapshot. It compiles a
// template and binds it, through an empty Memo. The plan holds the resolved
// relations (zero-copy rebound scans), so it stays executable for as long
// as those relations are not mutated.
func CompileCatalog(q *esql.ViewDef, cat Catalog) (*Plan, error) {
	p, err := new(Memo).Prepare(q, cat)
	if err != nil {
		return nil, err
	}
	return p.Plan(), nil
}

// input is a FROM relation and the planner's estimate of it: the catalog's
// advertised cardinality, else the relation's actual one.
type input struct {
	rel *relation.Relation
	est int
}

// resolve looks up q's FROM relations in cat, in FROM order.
func resolve(q *esql.ViewDef, cat Catalog) ([]input, error) {
	ins := make([]input, len(q.From))
	for i, f := range q.From {
		if ins[i].rel = cat.Relation(f.Rel); ins[i].rel == nil {
			return nil, fmt.Errorf("plan: view %s references missing relation %q", q.Name, f.Rel)
		}
		if ins[i].est = cat.EstCard(f.Rel); ins[i].est <= 0 {
			ins[i].est = ins[i].rel.Card()
		}
	}
	return ins, nil
}

// compileTemplate plans q over ins, its resolved FROM relations. Each
// attribute-constant clause is placed with its WHERE position as its
// constant — the slot bind fills; its one attribute puts it in its scan's
// filter.
func compileTemplate(q *esql.ViewDef, cat Catalog, ins []input) (*template, error) {
	compiles.Add(1)
	if len(q.From) == 0 {
		return nil, fmt.Errorf("plan: view %s has no FROM relations", q.Name)
	}
	sigma, js := clampSelectivities(cat.Selectivities())
	t := &template{sigma: sigma, js: js}

	pending := Pending(q)
	for i, c := range pending {
		if c.Right == "" {
			pending[i].Const = relation.Int(int64(i))
		}
	}

	// Leaf inputs: scans with their local predicates pushed down. Every
	// estimate is scaleEst's, as pricing and binding recompute them
	// (template.est).
	inputs := make([]leaf, 0, len(q.From))
	for i, f := range q.From {
		base, est := ins[i].rel, ins[i].est
		node := UnboundScan(base.Schema(), base.Name, f.Binding())
		node.from, node.est = i, est
		t.scans = append(t.scans, node)
		in := leaf{node: Node(node), pos: i}
		if local := TakeBound(&pending, node.Schema()); len(local) > 0 {
			filtered, err := NewFilter(in.node, local, scaleEst(float64(est), 0, len(local), sigma, js))
			if err != nil {
				return nil, err
			}
			in.node = filtered
		}
		inputs = append(inputs, in)
	}

	// Join-order heuristic: smallest estimated input first, ties broken by
	// FROM position so plans are deterministic; then greedily extend the
	// bound set, preferring equi-join connected inputs, then
	// theta-connected, and only then cross products. The sorted order is
	// the only thing compile reads of the estimates (template.fits).
	sort.Slice(inputs, func(a, b int) bool {
		if inputs[a].node.EstRows() != inputs[b].node.EstRows() {
			return inputs[a].node.EstRows() < inputs[b].node.EstRows()
		}
		return inputs[a].pos < inputs[b].pos
	})
	t.leaves = slices.Clone(inputs)
	acc := inputs[0].node
	remaining := inputs[1:]
	for len(remaining) > 0 {
		pick, pickLevel := 0, 0
		for i, in := range remaining {
			if lvl := connectivity(pending, acc.Schema(), in.node.Schema()); lvl > pickLevel {
				pick, pickLevel = i, lvl
				if lvl == 2 {
					break
				}
			}
		}
		right := remaining[pick].node
		remaining = append(remaining[:pick], remaining[pick+1:]...)

		keys, residual := splitJoinConds(&pending, acc.Schema(), right.Schema())
		est := scaleEst(float64(acc.EstRows())*float64(right.EstRows()), len(keys), len(residual), sigma, js)
		var err error
		if len(keys) > 0 {
			acc, err = NewHashJoin(acc, right, keys, residual, est)
		} else {
			acc, err = NewNestedLoop(acc, right, residual, est)
		}
		if err != nil {
			return nil, err
		}
	}

	// Predicates never bound reference unknown columns; binding them here
	// surfaces the same error the naive evaluator reported.
	if len(pending) > 0 {
		unbound := make(relation.And, len(pending))
		for i, c := range pending {
			unbound[i] = c
		}
		filtered, err := NewFilter(acc, unbound, scaleEst(float64(acc.EstRows()), 0, len(unbound), sigma, js))
		if err != nil {
			return nil, err
		}
		acc = filtered
	}

	// Project and rename to the view interface.
	outAttrs := make([]relation.Attribute, len(q.Select))
	idx := make([]int, len(q.Select))
	for i, s := range q.Select {
		col := s.Attr.Qualified()
		j := acc.Schema().IndexOf(col)
		if j < 0 {
			return nil, fmt.Errorf("plan: view %s selects unknown column %q", q.Name, col)
		}
		a := acc.Schema().Attr(j)
		a.Name = s.OutputName()
		a.Source = col
		outAttrs[i] = a
		idx[i] = j
	}
	proj, err := NewProject(acc, relation.NewSchema(outAttrs...), idx, acc.EstRows())
	if err != nil {
		return nil, err
	}
	t.root = NewDedup(proj, q.Name, proj.EstRows())
	t.dupFree = proveDupFree(proj)
	return t, nil
}

// clampSelectivities falls back to the paper's Table 1 values for local
// selectivity σ and join selectivity js when a catalog reports unset or
// out-of-range statistics.
func clampSelectivities(sigma, js float64) (float64, float64) {
	if sigma <= 0 || sigma > 1 {
		sigma = 0.5
	}
	if js <= 0 || js > 1 {
		js = 0.005
	}
	return sigma, js
}

// maxEst caps cardinality estimates; it fits a 32-bit int so estRows
// compiles and behaves identically on every GOARCH.
const maxEst = 1 << 30

// estRows converts a float cardinality estimate into the int the operators
// display, clamping away negatives, fractional underflow, and overflow.
func estRows(x float64) int {
	switch {
	case x <= 0:
		return 0
	case x < 1:
		return 1
	case x > maxEst:
		return maxEst
	}
	return int(x)
}

// Pending lowers a qualified view's WHERE clauses to the relation algebra,
// in WHERE order: the clauses a plan has yet to place. CompileCatalog and
// delta maintenance (internal/maintain) consume one such list each, through
// TakeBound, PlaceHop and Connected, so both place every clause the same way.
func Pending(q *esql.ViewDef) []relation.Clause {
	pending := make([]relation.Clause, len(q.Where))
	for i, w := range q.Where {
		c := w.Clause
		if c.Right.Attr != "" {
			pending[i] = relation.AttrAttr(c.Left.Qualified(), c.Op, c.Right.Qualified())
		} else {
			pending[i] = relation.AttrConst(c.Left.Qualified(), c.Op, c.Const)
		}
	}
	return pending
}

// TakeBound removes and returns the pending clauses whose attributes are
// all present in s — the predicate-pushdown step.
func TakeBound(pending *[]relation.Clause, s *relation.Schema) relation.And {
	var take relation.And
	rest := (*pending)[:0]
	for _, c := range *pending {
		if boundBy(c, s, s) {
			take = append(take, c)
		} else {
			rest = append(rest, c)
		}
	}
	*pending = rest
	return take
}

// boundBy reports whether every attribute of c is in one of two schemas.
func boundBy(c relation.Clause, a, b *relation.Schema) bool {
	for _, at := range c.Attrs() {
		if !a.Has(at) && !b.Has(at) {
			return false
		}
	}
	return true
}

// Connected reports whether a pending equi-clause connects cand to the
// bound set — whether joining cand next is a key join rather than a theta
// join or a cross product.
func Connected(pending []relation.Clause, bound, cand *relation.Schema) bool {
	return connectivity(pending, bound, cand) == 2
}

// connectivity classifies how the pending clauses connect a candidate input
// to the bound set: 2 — by an equi-join clause (hash-joinable), 1 — by any
// spanning clause (theta join), 0 — not at all (cross product).
func connectivity(pending []relation.Clause, bound, cand *relation.Schema) int {
	level := 0
	for _, c := range pending {
		if c.Right == "" {
			continue
		}
		spans := (bound.Has(c.Left) && cand.Has(c.Right)) || (cand.Has(c.Left) && bound.Has(c.Right))
		if !spans {
			continue
		}
		if c.Op == relation.OpEQ {
			return 2
		}
		level = 1
	}
	return level
}

// Hop is the placement of the pending clauses at one join of a bound input
// with a scanned relation.
type Hop struct {
	ScanCond relation.And      // local to the scan: pushed below the join
	Keys     []relation.Clause // equi-keys, Left on the bound side
	Residual relation.And      // spanning the two sides, applied on the join
}

// PlaceHop removes from pending every clause the join of bound ⋈ scan can
// evaluate and places it: the scan's local clauses, then the join keys and
// the residual (splitJoinConds). Clauses still unbound stay pending.
func PlaceHop(pending *[]relation.Clause, bound, scan *relation.Schema) Hop {
	h := Hop{ScanCond: TakeBound(pending, scan)}
	h.Keys, h.Residual = splitJoinConds(pending, bound, scan)
	return h
}

// splitJoinConds removes from pending every clause the join of bound ⋈ cand
// can evaluate: equi-clauses spanning the two sides become hash keys
// (normalized with Left on the bound side); everything else fully bound by
// the combined schema becomes the residual.
func splitJoinConds(pending *[]relation.Clause, bound, cand *relation.Schema) (keys []relation.Clause, residual relation.And) {
	rest := (*pending)[:0]
	for _, c := range *pending {
		if c.Right != "" && c.Op == relation.OpEQ {
			switch {
			case bound.Has(c.Left) && cand.Has(c.Right):
				keys = append(keys, c)
				continue
			case cand.Has(c.Left) && bound.Has(c.Right):
				keys = append(keys, relation.AttrAttr(c.Right, c.Op, c.Left))
				continue
			}
		}
		if boundBy(c, bound, cand) {
			residual = append(residual, c)
		} else {
			rest = append(rest, c)
		}
	}
	*pending = rest
	return keys, residual
}
