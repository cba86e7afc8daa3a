package plan

import (
	"fmt"
	"sort"

	"repro/internal/esql"
	"repro/internal/relation"
	"repro/internal/space"
)

// Catalog is the read surface Compile needs from its data source: relation
// resolution, cardinality estimates, and default selectivities. space.Space
// satisfies it through the spaceCatalog adapter; the warehouse's published
// versions implement it over their captured (immutable) relation set, so
// plans can be compiled against a snapshot without touching the live space
// or its MKB.
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
// published warehouse version's immutable relation snapshot. It only reads
// the catalog during the call; the returned plan holds the resolved
// relations (zero-copy rebound scans), so it stays executable for as long
// as those relations are not mutated.
func CompileCatalog(q *esql.ViewDef, cat Catalog) (*Plan, error) {
	if len(q.From) == 0 {
		return nil, fmt.Errorf("plan: view %s has no FROM relations", q.Name)
	}
	sigma, js := clampSelectivities(cat.Selectivities())

	pending := Pending(q)

	// Leaf inputs: scans with their local predicates pushed down.
	type input struct {
		node Node
		pos  int // original FROM position, the deterministic tie-break
	}
	inputs := make([]*input, 0, len(q.From))
	for i, f := range q.From {
		base := cat.Relation(f.Rel)
		if base == nil {
			return nil, fmt.Errorf("plan: view %s references missing relation %q", q.Name, f.Rel)
		}
		est := base.Card()
		if c := cat.EstCard(f.Rel); c > 0 {
			est = c
		}
		node, err := NewScan(base, f.Binding(), est)
		if err != nil {
			return nil, err
		}
		in := &input{node: Node(node), pos: i}
		if local := TakeBound(&pending, node.Schema()); len(local) > 0 {
			fest := float64(est)
			for range local {
				fest *= sigma
			}
			filtered, err := NewFilter(in.node, local, estRows(fest))
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
	// theta-connected, and only then cross products.
	sort.Slice(inputs, func(a, b int) bool {
		if inputs[a].node.EstRows() != inputs[b].node.EstRows() {
			return inputs[a].node.EstRows() < inputs[b].node.EstRows()
		}
		return inputs[a].pos < inputs[b].pos
	})
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
		fest := float64(acc.EstRows()) * float64(right.EstRows())
		for range keys {
			fest *= js
		}
		for range residual {
			fest *= sigma
		}
		var err error
		if len(keys) > 0 {
			acc, err = NewHashJoin(acc, right, keys, residual, estRows(fest))
		} else {
			acc, err = NewNestedLoop(acc, right, residual, estRows(fest))
		}
		if err != nil {
			return nil, err
		}
	}

	// Predicates never bound reference unknown columns; binding them here
	// surfaces the same error the naive evaluator reported.
	if len(pending) > 0 {
		fest := float64(acc.EstRows())
		for range pending {
			fest *= sigma
		}
		unbound := make(relation.And, len(pending))
		for i, c := range pending {
			unbound[i] = c
		}
		filtered, err := NewFilter(acc, unbound, estRows(fest))
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
	root := NewDedup(proj, q.Name, proj.EstRows())
	return &Plan{View: q.Name, Root: root}, nil
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
