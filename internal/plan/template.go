package plan

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/esql"
	"repro/internal/relation"
)

// template is a compiled plan with its inputs left open: scans without a
// relation, filters with each constant a slot (compileTemplate). It holds
// no relation, so it keeps no data alive.
type template struct {
	root      *Dedup
	scans     []*Scan // in FROM order
	sigma, js float64
}

var compiles atomic.Int64

// Compiles returns the number of plan templates compiled since the process
// started: one per CompileCatalog, one per Memo miss.
func Compiles() int64 { return compiles.Load() }

// fits reports whether compiling over ins and cat would read what t's
// compile read — each relation's schema object, name and estimate, and the
// selectivities — and so yield t again.
func (t *template) fits(ins []input, cat Catalog) bool {
	if sigma, js := clampSelectivities(cat.Selectivities()); sigma != t.sigma || js != t.js {
		return false
	}
	for i, in := range ins {
		if s := t.scans[i]; in.rel.Schema() != s.src || in.rel.Name != s.base || in.est != s.est {
			return false
		}
	}
	return true
}

// bindNode binds a template's subtree over ins: each scan rebinds its
// relation under its qualified schema, and each filter slot takes its WHERE
// constant (in the bound program and the rendered condition). All else is
// shared with the template.
func bindNode(n Node, ins []input, where []esql.CondItem) Node {
	switch n := n.(type) {
	case *Scan:
		return n.bind(ins[n.from].rel)
	case *Filter:
		f := *n
		f.child = bindNode(n.child, ins, where)
		cond := slices.Clone(n.cond.(relation.And))
		f.prog = slices.Clone(n.prog)
		for i, c := range cond {
			if cl := c.(relation.Clause); cl.Right == "" {
				cl.Const = where[cl.Const.AsInt()].Clause.Const
				cond[i], f.prog[i].Const = cl, cl.Const
			}
		}
		f.cond = cond
		return &f
	case *HashJoin:
		j := *n
		j.left, j.right = bindNode(n.left, ins, where), bindNode(n.right, ins, where)
		return &j
	case *NestedLoop:
		j := *n
		j.left, j.right = bindNode(n.left, ins, where), bindNode(n.right, ins, where)
		return &j
	case *Project:
		p := *n
		p.child = bindNode(n.child, ins, where)
		return &p
	case *Dedup:
		d := *n
		d.child = bindNode(n.child, ins, where)
		return &d
	}
	panic(fmt.Sprintf("plan: %T is not a template operator", n))
}

// memoCap bounds a Memo; a route compiles one template for its base plan
// and one per view it can answer from.
const memoCap = 512

// Memo holds one compiled plan template per query shape (esql AppendShape:
// the signature with each constant replaced by its type), so compiling a
// known shape only binds. A template is reused only while it fits the
// catalog, so a schema change or a new cardinality needs no invalidation.
// A compile into a full memo starts it over. The zero Memo is ready; a
// Memo is safe for concurrent use.
type Memo struct {
	mu      sync.Mutex
	byShape map[string]*template
}

// Compile compiles q over cat: it binds the memoized template of q's shape
// when that fits cat, and compiles and memoizes one otherwise.
func (m *Memo) Compile(q *esql.ViewDef, cat Catalog) (*Plan, error) {
	ins, err := resolve(q, cat)
	if err != nil {
		return nil, err
	}
	var stack [512]byte
	key := q.AppendShape(stack[:0])
	m.mu.Lock()
	t := m.byShape[string(key)]
	m.mu.Unlock()
	if t == nil || !t.fits(ins, cat) {
		if t, err = compileTemplate(q, cat, ins); err != nil {
			return nil, err
		}
		m.mu.Lock()
		if len(m.byShape) >= memoCap || m.byShape == nil {
			m.byShape = make(map[string]*template)
		}
		m.byShape[string(key)] = t
		m.mu.Unlock()
	}
	d := bindNode(t.root, ins, q.Where).(*Dedup)
	d.name = q.Name
	return &Plan{View: q.Name, Root: d}, nil
}
