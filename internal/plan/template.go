package plan

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/esql"
	"repro/internal/relation"
)

// template is a compiled plan with its inputs left open: scans without a
// relation, filters with each constant a slot (compileTemplate). It holds
// no relation, so it keeps no data alive. Its estimates are those of the
// inputs it was compiled over; pricing and binding recompute them (est).
type template struct {
	root      *Dedup
	scans     []*Scan  // in FROM order
	leaves    []leaf   // in join order
	dupFree   *dupFree // the structural half of the root's elision; nil: none
	sigma, js float64
}

// leaf is one FROM input of a compile: its scan, under the filter of its
// pushed-down clauses when it has any.
type leaf struct {
	node Node
	pos  int // original FROM position, the deterministic tie-break
}

// dupFree is the structural half of a proof that a plan's projection holds
// no duplicate: its leftmost leaf, which drives it, is a Scan (under
// filters) whose every column is selected, and every join above it probes
// a bare Scan's borrowed key index. When no such index repeats a key
// (holds), each driving row yields at most one output row; a relation is a set.
type dupFree struct {
	joins []*HashJoin // the template's
	label string      // the elided root's label suffix
}

// proveDupFree returns the structural half of proj's duplicate-freedom
// proof, or nil when proj's shape gives none.
func proveDupFree(proj *Project) *dupFree {
	f := &dupFree{}
	var keys []string
	n := proj.child
	for {
		if fl, ok := n.(*Filter); ok {
			n = fl.child
			continue
		}
		j, ok := n.(*HashJoin)
		if !ok {
			break
		}
		s, ok := j.right.(*Scan)
		if !ok {
			return nil
		}
		names := make([]string, len(j.rightIdx))
		for i, c := range j.rightIdx {
			names[i] = s.schema.Attr(c).Name
		}
		f.joins, keys, n = append(f.joins, j), append(keys, strings.Join(names, "+")), j.left
	}
	d, ok := n.(*Scan)
	if !ok {
		return nil
	}
	for c := range d.schema.Len() {
		if !slices.Contains(proj.idx, c) {
			return nil
		}
	}
	if slices.Reverse(keys); len(keys) > 0 {
		f.label = "; " + strings.Join(keys, ", ") + " unique"
	}
	f.label = " [elided: " + d.binding + " drives" + f.label + "]"
	return f
}

// holds reports whether no key index f's joins borrow over ins repeats a
// key; the joins borrow the same indexes when the plan runs.
func (f *dupFree) holds(ins []input) bool {
	for _, j := range f.joins {
		if ins[j.right.(*Scan).from].rel.KeyIndex(j.rightIdx).Dups() != 0 {
			return false
		}
	}
	return true
}

var compiles atomic.Int64

// Compiles returns the number of plan templates compiled since the process
// started: one per CompileCatalog, one per Memo miss.
func Compiles() int64 { return compiles.Load() }

// fits reports whether compiling over ins and cat would yield t again, up
// to its estimates: each relation's schema object and name and the
// selectivities are the ones t read, and the leaves' estimates over ins
// still sort into t's join order — the one thing compile reads of them.
func (t *template) fits(ins []input, cat Catalog) bool {
	if sigma, js := clampSelectivities(cat.Selectivities()); sigma != t.sigma || js != t.js {
		return false
	}
	for i, in := range ins {
		if s := t.scans[i]; in.rel.Schema() != s.src || in.rel.Name != s.base {
			return false
		}
	}
	var buf [4]int
	for k := 1; k < len(t.leaves); k++ {
		a, b := t.leaves[k-1], t.leaves[k]
		_, ea := t.est(a.node, ins, buf[:0])
		_, eb := t.est(b.node, ins, buf[:0])
		if ea > eb || ea == eb && a.pos > b.pos {
			return false
		}
	}
	return true
}

// scaleEst is compile's estimate arithmetic: rows times js per equi-key,
// then σ per other clause.
func scaleEst(rows float64, keys, clauses int, sigma, js float64) int {
	for range keys {
		rows *= js
	}
	for range clauses {
		rows *= sigma
	}
	return estRows(rows)
}

// est recomputes the estimates of t's subtree n over ins, bottom-up with
// compile's arithmetic: it appends them to out in pre-order — the
// EstRowCounts of the plan bind would build — and returns n's.
func (t *template) est(n Node, ins []input, out []int) ([]int, int) {
	at := len(out)
	out = append(out, 0)
	var e, l, r int
	switch n := n.(type) {
	case *Scan:
		e = ins[n.from].est
	case *Filter:
		out, l = t.est(n.child, ins, out)
		e = scaleEst(float64(l), 0, len(n.cond.(relation.And)), t.sigma, t.js)
	case *HashJoin:
		out, l = t.est(n.left, ins, out)
		out, r = t.est(n.right, ins, out)
		e = scaleEst(float64(l)*float64(r), len(n.keys), len(n.residual), t.sigma, t.js)
	case *NestedLoop:
		out, l = t.est(n.left, ins, out)
		out, r = t.est(n.right, ins, out)
		e = scaleEst(float64(l)*float64(r), 0, len(n.cond), t.sigma, t.js)
	case *Project:
		out, e = t.est(n.child, ins, out)
	case *Dedup:
		out, e = t.est(n.child, ins, out)
	}
	out[at] = e
	return out, e
}

// bind binds t's subtree n over ins: each scan rebinds its relation under
// its qualified schema, each filter slot takes its WHERE constant (in the
// bound program and the rendered condition), and each operator takes its
// estimate from ests, n's subtree's in pre-order (est). All else is shared
// with the template (Copy).
func (t *template) bind(n Node, ins []input, where []esql.CondItem, ests *[]int) Node {
	e := (*ests)[0]
	*ests = (*ests)[1:]
	switch n := n.(type) {
	case *Scan:
		return n.Bind(ins[n.from].rel, e)
	case *Filter:
		f := Copy(n, e, t.bind(n.child, ins, where, ests)).(*Filter)
		cond := slices.Clone(n.cond.(relation.And))
		f.prog = slices.Clone(n.prog)
		for i, c := range cond {
			if cl := c.(relation.Clause); cl.Right == "" {
				cl.Const = where[cl.Const.AsInt()].Clause.Const
				cond[i], f.prog[i].Const = cl, cl.Const
			}
		}
		f.cond = cond
		return f
	case *HashJoin:
		return Copy(n, e, t.bind(n.left, ins, where, ests), t.bind(n.right, ins, where, ests))
	case *NestedLoop:
		return Copy(n, e, t.bind(n.left, ins, where, ests), t.bind(n.right, ins, where, ests))
	case *Project:
		return Copy(n, e, t.bind(n.child, ins, where, ests))
	case *Dedup:
		return Copy(n, e, t.bind(n.child, ins, where, ests))
	}
	panic(fmt.Sprintf("plan: %T is not a template operator", n))
}

// memoCap bounds a Memo; a route compiles one template for its base plan
// and one per view it can answer from.
const memoCap = 512

// Memo holds one compiled plan template per query shape (esql AppendShape:
// the signature with each constant replaced by its type), so compiling a
// known shape only binds. A template is reused while it fits the catalog,
// so a schema change or a join-reordering cardinality needs no
// invalidation, and a cardinality that keeps the join order only moves the
// estimates. A compile into a full memo starts it over. The zero Memo is
// ready; a Memo is safe for concurrent use.
type Memo struct {
	mu      sync.Mutex
	byShape map[string]*template
}

// Prepared is a query resolved over a catalog to the memoized template
// that fits it: priced without binding (EstRowCounts), bound on demand
// (Plan).
type Prepared struct {
	t   *template
	ins []input
	q   *esql.ViewDef
}

// Prepare resolves q over cat to the memoized template of q's shape when
// that fits cat, and compiles and memoizes one otherwise.
func (m *Memo) Prepare(q *esql.ViewDef, cat Catalog) (Prepared, error) {
	ins, err := resolve(q, cat)
	if err != nil {
		return Prepared{}, err
	}
	var stack [512]byte
	key := q.AppendShape(stack[:0])
	m.mu.Lock()
	t := m.byShape[string(key)]
	m.mu.Unlock()
	if t == nil || !t.fits(ins, cat) {
		if t, err = compileTemplate(q, cat, ins); err != nil {
			return Prepared{}, err
		}
		m.mu.Lock()
		if len(m.byShape) >= memoCap || m.byShape == nil {
			m.byShape = make(map[string]*template)
		}
		m.byShape[string(key)] = t
		m.mu.Unlock()
	}
	return Prepared{t: t, ins: ins, q: q}, nil
}

// EstRowCounts appends to out the estimated output cardinality of every
// operator of the plan Plan would bind, in a deterministic pre-order walk,
// without binding it — the row-count vector core.CostModel.RoutePages
// prices a candidate route from.
func (p Prepared) EstRowCounts(out []int) []int {
	out, _ = p.t.est(p.t.root, p.ins, out)
	return out
}

// Plan binds the prepared template to its relations, constants and
// estimates, and elides its root where the relations prove it (dupFree).
func (p Prepared) Plan() *Plan {
	var buf [32]int
	ests := p.EstRowCounts(buf[:0])
	d := p.t.bind(p.t.root, p.ins, p.q.Where, &ests).(*Dedup)
	d.name = p.q.Name
	if f := p.t.dupFree; f != nil && f.holds(p.ins) {
		d.elided = f.label
	}
	return &Plan{View: p.q.Name, Root: d}
}
