package plan

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/relation"
)

// Node is one physical operator in a compiled plan. Execution is
// batch-at-a-time and bottom-up: each operator's exec returns its result as
// a frame of row references into columnar leaf batches (frame.go); only
// the root Dedup builds a Relation.
type Node interface {
	// Schema is the operator's output schema.
	Schema() *relation.Schema
	// EstRows is the planner's cardinality estimate for this operator.
	EstRows() int
	// Children returns the operator's inputs, for plan rendering.
	Children() []Node
	// Label renders the operator head line for ExplainPlan.
	Label() string
	// exec runs the subtree and returns its result frame, duplicates
	// preserved. All execution state lives in the returned frames, so an
	// operator tree is immutable and safe for concurrent executions.
	// Operators poll ctx between inputs and every vecChunk rows inside
	// their loops, so cancelling aborts the execution promptly with ctx.Err().
	exec(ctx context.Context) (*vframe, error)
}

// Copy returns a copy of operator n over the inputs kids, in Children
// order, with the estimate est; all else (schema, keys, bound programs) is
// shared with n. It is how a plan template is bound: a Scan binds its
// relation instead (Scan.Bind).
func Copy(n Node, est int, kids ...Node) Node {
	switch n := n.(type) {
	case *Filter:
		f := *n
		f.child, f.est = kids[0], est
		return &f
	case *HashJoin:
		j := *n
		j.left, j.right, j.est = kids[0], kids[1], est
		return &j
	case *NestedLoop:
		j := *n
		j.left, j.right, j.est = kids[0], kids[1], est
		return &j
	case *Project:
		p := *n
		p.child, p.est = kids[0], est
		return &p
	case *Dedup:
		d := *n
		d.child, d.est = kids[0], est
		return &d
	}
	panic(fmt.Sprintf("plan: %T is not a template operator", n))
}

// Scan reads a base relation under a FROM binding. The scanned relation is
// a Rebind view of the base: qualified "binding.attr" column names over the
// base's own storage, so qualification costs nothing per tuple and the scan
// shares the base's cached columnar batch.
type Scan struct {
	rel     *relation.Relation // nil in a plan template
	src     *relation.Schema   // rel's own schema
	schema  *relation.Schema   // qualified; rel is rebound under it
	base    string
	binding string
	from    int // FROM position, in a plan template
	est     int
}

// UnboundScan builds a scan of a relation with schema src under the given
// binding, without the relation: a template's leaf. It qualifies src once;
// each Bind only rebinds.
func UnboundScan(src *relation.Schema, base, binding string) *Scan {
	return &Scan{src: src, schema: src.Qualify(base, binding), base: base, binding: binding}
}

// Bind returns a copy of s over rel, rebound (and so sealed) under s's
// schema, with the estimate est. rel must have s's source schema object: a
// template compiled over another one may place its clauses on columns
// that moved or were renamed, so binding it panics.
func (s *Scan) Bind(rel *relation.Relation, est int) *Scan {
	if rel.Schema() != s.src {
		panic(fmt.Sprintf("plan: scan %s: bound over a relation of another schema", s.binding))
	}
	r, _ := rel.Rebind(s.base, s.schema) // the same arity: cannot fail
	b := *s
	b.rel, b.est = r, est
	return &b
}

// Schema implements Node.
func (s *Scan) Schema() *relation.Schema { return s.schema }

func (s *Scan) exec(ctx context.Context) (*vframe, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return leafFrame(s.rel.Columns()), nil
}

// EstRows implements Node.
func (s *Scan) EstRows() int { return s.est }

// Children implements Node.
func (s *Scan) Children() []Node { return nil }

// Label implements Node.
func (s *Scan) Label() string {
	if s.base == s.binding {
		return fmt.Sprintf("Scan %s [est=%d]", s.base, s.est)
	}
	return fmt.Sprintf("Scan %s AS %s [est=%d]", s.base, s.binding, s.est)
}

// Filter applies a conjunction of predicates to its input. The condition is
// bound to child-schema positions at plan time.
type Filter struct {
	child Node
	cond  relation.Condition
	prog  []relation.BoundClause
	est   int
}

// NewFilter builds a filter over child.
func NewFilter(child Node, cond relation.Condition, est int) (*Filter, error) {
	prog, err := relation.Bind(child.Schema(), cond)
	if err != nil {
		return nil, err
	}
	return &Filter{child: child, cond: cond, prog: prog, est: est}, nil
}

// Schema implements Node.
func (f *Filter) Schema() *relation.Schema { return f.child.Schema() }

func (f *Filter) exec(ctx context.Context) (*vframe, error) {
	fr, err := f.child.exec(ctx)
	if err != nil {
		return nil, err
	}
	return narrow(ctx, fr, f.prog)
}

// EstRows implements Node.
func (f *Filter) EstRows() int { return f.est }

// Children implements Node.
func (f *Filter) Children() []Node { return []Node{f.child} }

// Label implements Node.
func (f *Filter) Label() string {
	return fmt.Sprintf("Filter [%s] [est=%d]", f.cond, f.est)
}

// HashJoin joins its inputs on composite equi-keys through a
// relation.KeyIndex: when its right input is a bare Scan it probes that base
// relation's memoized index (Relation.KeyIndex, built once and carried by
// WithDelta) with the left rows and builds nothing; otherwise it indexes
// whichever input turned out smaller at run time. Output rows are left ++
// right, duplicates preserved (bag semantics — each matched pair is one
// derivation witness), and non-equi clauses over the joined pair are
// applied as a residual on the combined frame.
type HashJoin struct {
	left, right Node
	schema      *relation.Schema
	leftIdx     []int
	rightIdx    []int
	keys        []relation.Clause
	residual    relation.And
	prog        []relation.BoundClause // residual, bound to schema
	est         int
}

// NewHashJoin builds a hash join of left ⋈ right on the given equi-clauses
// (each with its left attribute in left's schema and right attribute in
// right's schema) plus a residual conjunction over the combined schema.
func NewHashJoin(left, right Node, keys []relation.Clause, residual relation.And, est int) (*HashJoin, error) {
	schema := relation.NewSchema(append(left.Schema().Attrs(), right.Schema().Attrs()...)...)
	j := &HashJoin{left: left, right: right, schema: schema, keys: keys, residual: residual, est: est}
	for _, k := range keys {
		li, ri := left.Schema().IndexOf(k.Left), right.Schema().IndexOf(k.Right)
		if li < 0 || ri < 0 {
			return nil, fmt.Errorf("plan: hash key %s not bound by join inputs", k)
		}
		j.leftIdx = append(j.leftIdx, li)
		j.rightIdx = append(j.rightIdx, ri)
	}
	if len(j.keys) == 0 {
		return nil, fmt.Errorf("plan: hash join requires at least one equi-clause")
	}
	var err error
	if j.prog, err = relation.Bind(schema, residual); err != nil {
		return nil, err
	}
	return j, nil
}

// Schema implements Node.
func (j *HashJoin) Schema() *relation.Schema { return j.schema }

// rowReadShare bounds a probe into a borrowed index that reads its matches
// row by row: a probe side of fewer than 1/rowReadShare of the relation's
// rows (a maintenance hop's delta) copies out only the rows it matched, so
// it never ingests a freshly landed relation into columns; a larger one
// reads the relation's columnar image, memoized for every later read.
const rowReadShare = 16

// exec probes a bare right scan's borrowed index, or else indexes the input
// that actually turned out smaller at run time (plan estimates order the
// join tree, but the accumulated intermediate is often the larger side) and
// probes it with the other. Output columns are left ++ right either way.
func (j *HashJoin) exec(ctx context.Context) (*vframe, error) {
	lfr, err := j.left.exec(ctx)
	if err != nil {
		return nil, err
	}
	if s, ok := j.right.(*Scan); ok {
		return j.probeBase(ctx, lfr, s.rel)
	}
	rfr, err := j.right.exec(ctx)
	if err != nil {
		return nil, err
	}
	bfr, pfr, bkey, pkey := lfr, rfr, j.leftIdx, j.rightIdx
	if rfr.n < lfr.n {
		bfr, pfr, bkey, pkey = rfr, lfr, j.rightIdx, j.leftIdx
	}
	bcols, bsels := frameKeys(bfr, bkey)
	ix, err := relation.IndexRows(bcols, bsels, bfr.n, vecChunk, ctx.Err)
	if err != nil {
		return nil, err
	}
	bi, pi, err := probe(ctx, ix, pfr, pkey)
	if err != nil {
		return nil, err
	}
	bi, pi = confirm(bfr, bkey, bi, pfr, pkey, pi)
	if bfr == lfr {
		return narrow(ctx, joinFrame(lfr, rfr, bi, pi), j.prog)
	}
	return narrow(ctx, joinFrame(lfr, rfr, pi, bi), j.prog)
}

// probeBase joins the left frame with every row of rel, the right scan's
// relation, through rel's memoized key index. The matched rows come from
// rel's columnar image when it has one or the probe is large
// (rowReadShare), and otherwise one at a time (Relation.Row) into one small
// right leaf.
func (j *HashJoin) probeBase(ctx context.Context, lfr *vframe, rel *relation.Relation) (*vframe, error) {
	ri, li, err := probe(ctx, rel.KeyIndex(j.rightIdx), lfr, j.leftIdx)
	if err != nil {
		return nil, err
	}
	b := rel.CachedColumns()
	switch {
	case b == nil && lfr.n*rowReadShare >= rel.Card():
		b = rel.Columns()
	case b == nil:
		matched := make([]relation.Tuple, len(ri))
		for m, p := range ri {
			matched[m], ri[m] = rel.Row(int(p)), int32(m)
		}
		b = relation.NewColumnBatch(matched, rel.Schema().Len())
	}
	rfr := leafFrame(b)
	ri, li = confirm(rfr, j.rightIdx, ri, lfr, j.leftIdx, li)
	return narrow(ctx, joinFrame(lfr, rfr, li, ri), j.prog)
}

// frameKeys resolves a frame's key positions to their column vectors and
// row vectors.
func frameKeys(fr *vframe, key []int) ([]*relation.Column, []relation.Sel) {
	cols := make([]*relation.Column, len(key))
	sels := make([]relation.Sel, len(key))
	for i, pos := range key {
		cols[i], sels[i] = fr.column(pos)
	}
	return cols, sels
}

// probe looks the probe frame's rows up in ix a block at a time
// (relation.HashRows, KeyIndex.ProbeBlock) and returns the candidate
// pairs, not yet confirmed (confirm): indexed position, probe row. It also
// polls per vecChunk candidates, for key groups that fan out quadratically.
func probe(ctx context.Context, ix *relation.KeyIndex, pfr *vframe, pkey []int) (bi, pi []int32, err error) {
	pcols, psels := frameKeys(pfr, pkey)
	bi = make([]int32, 0, pfr.n+1) // a match a row, and ProbeBlock's slack
	pi = make([]int32, 0, pfr.n+1)
	var hs [relation.BlockRows]uint64
	var tk, etk ticker
	for lo := 0; lo < pfr.n; lo += len(hs) {
		blk := hs[:min(len(hs), pfr.n-lo)]
		if err := tk.tick(ctx, len(blk)); err != nil {
			return nil, nil, err
		}
		relation.HashRows(pcols, psels, lo, blk)
		at := len(bi)
		bi, pi = ix.ProbeBlock(bi, pi, blk, lo)
		if err := etk.tick(ctx, len(bi)-at); err != nil {
			return nil, nil, err
		}
	}
	return bi, pi, nil
}

// confirm keeps the candidate pairs whose key cells are KeyEqual — the
// indexed frame's at bkey, the probe frame's at pkey — and returns them
// compacted in place; one int, string or bool key column a side compares
// its payloads directly.
func confirm(bfr *vframe, bkey []int, bi []int32, pfr *vframe, pkey []int, pi []int32) ([]int32, []int32) {
	bcols, bsels := frameKeys(bfr, bkey)
	pcols, psels := frameKeys(pfr, pkey)
	if b, p := bcols[0], pcols[0]; len(pkey) == 1 && b.Kind == p.Kind {
		switch b.Kind {
		case relation.TypeInt:
			return confirmTyped(b.Ints, bsels[0], bi, p.Ints, psels[0], pi)
		case relation.TypeString:
			return confirmTyped(b.Strs, bsels[0], bi, p.Strs, psels[0], pi)
		case relation.TypeBool:
			return confirmTyped(b.Bools, bsels[0], bi, p.Bools, psels[0], pi)
		}
	}
	k := 0
	for m, b := range bi {
		p := pi[m]
		same := true
		for c, col := range pcols {
			if !col.KeyEqual(int(rowID(psels[c], int(p))), bcols[c], int(rowID(bsels[c], int(b)))) {
				same = false
				break
			}
		}
		if same {
			bi[k], pi[k], k = b, p, k+1
		}
	}
	return bi[:k], pi[:k]
}

// confirmTyped is confirm over one typed key column a side, whose payloads
// are KeyEqual exactly when they are ==.
func confirmTyped[T comparable](bv []T, bsel relation.Sel, bi []int32, pv []T, psel relation.Sel, pi []int32) ([]int32, []int32) {
	k := 0
	for m, b := range bi {
		p := pi[m]
		if bv[rowID(bsel, int(b))] == pv[rowID(psel, int(p))] {
			bi[k], pi[k], k = b, p, k+1
		}
	}
	return bi[:k], pi[:k]
}

// EstRows implements Node.
func (j *HashJoin) EstRows() int { return j.est }

// Children implements Node.
func (j *HashJoin) Children() []Node { return []Node{j.left, j.right} }

// Label implements Node.
func (j *HashJoin) Label() string {
	parts := make([]string, len(j.keys))
	for i, k := range j.keys {
		parts[i] = k.String()
	}
	l := fmt.Sprintf("HashJoin [%s]", strings.Join(parts, " AND "))
	if len(j.residual) > 0 {
		l += fmt.Sprintf(" residual [%s]", j.residual)
	}
	return fmt.Sprintf("%s [est=%d]", l, j.est)
}

// NestedLoop is the join for pairs with no usable equi-key: every
// left/right combination is formed and the condition (possibly empty — a
// cross join) filters the combined row.
type NestedLoop struct {
	left, right Node
	schema      *relation.Schema
	cond        relation.And
	prog        []relation.BoundClause // cond, bound to schema
	est         int
}

// NewNestedLoop builds a nested-loop join with an optional condition over
// the combined schema.
func NewNestedLoop(left, right Node, cond relation.And, est int) (*NestedLoop, error) {
	schema := relation.NewSchema(append(left.Schema().Attrs(), right.Schema().Attrs()...)...)
	prog, err := relation.Bind(schema, cond)
	if err != nil {
		return nil, err
	}
	return &NestedLoop{left: left, right: right, schema: schema, cond: cond, prog: prog, est: est}, nil
}

// Schema implements Node.
func (j *NestedLoop) Schema() *relation.Schema { return j.schema }

// exec evaluates the condition over the column vectors of each left/right
// row-index pair directly — no combined tuple is ever built.
func (j *NestedLoop) exec(ctx context.Context) (*vframe, error) {
	lfr, err := j.left.exec(ctx)
	if err != nil {
		return nil, err
	}
	rfr, err := j.right.exec(ctx)
	if err != nil {
		return nil, err
	}
	// Resolve each clause operand to its side's column once.
	leftWidth := j.left.Schema().Len()
	type operand struct {
		col  *relation.Column
		sel  relation.Sel
		left bool
	}
	resolve := func(pos int) operand {
		if pos < leftWidth {
			c, s := lfr.column(pos)
			return operand{col: c, sel: s, left: true}
		}
		c, s := rfr.column(pos - leftWidth)
		return operand{col: c, sel: s}
	}
	type pairClause struct {
		l, r operand
		op   relation.Op
		cval relation.Value
		attr bool
	}
	prog := make([]pairClause, len(j.prog))
	for i, k := range j.prog {
		pc := pairClause{l: resolve(k.Left), op: k.Op, cval: k.Const}
		if k.Right >= 0 {
			pc.r = resolve(k.Right)
			pc.attr = true
		}
		prog[i] = pc
	}
	at := func(o operand, li, ri int) relation.Value {
		p := ri
		if o.left {
			p = li
		}
		return o.col.Value(int(rowID(o.sel, p)))
	}

	var li, ri []int32
	var tk ticker
	for a := 0; a < lfr.n; a++ {
		for b := 0; b < rfr.n; b++ {
			if err := tk.tick(ctx, 1); err != nil {
				return nil, err
			}
			keep := true
			for i := range prog {
				pc := &prog[i]
				rv := pc.cval
				if pc.attr {
					rv = at(pc.r, a, b)
				}
				ok, err := pc.op.Apply(at(pc.l, a, b), rv)
				if err != nil {
					return nil, err
				}
				if !ok {
					keep = false
					break
				}
			}
			if keep {
				li = append(li, int32(a))
				ri = append(ri, int32(b))
			}
		}
	}
	return joinFrame(lfr, rfr, li, ri), nil
}

// EstRows implements Node.
func (j *NestedLoop) EstRows() int { return j.est }

// Children implements Node.
func (j *NestedLoop) Children() []Node { return []Node{j.left, j.right} }

// Label implements Node.
func (j *NestedLoop) Label() string {
	if len(j.cond) == 0 {
		return fmt.Sprintf("NestedLoop [cross] [est=%d]", j.est)
	}
	return fmt.Sprintf("NestedLoop [%s] [est=%d]", j.cond, j.est)
}

// Project narrows and renames its input to the view interface columns.
type Project struct {
	child  Node
	schema *relation.Schema
	idx    []int
	est    int
}

// NewProject builds a projection: idx[i] is the child-schema position that
// feeds output column i of schema.
func NewProject(child Node, schema *relation.Schema, idx []int, est int) (*Project, error) {
	if schema.Len() != len(idx) {
		return nil, fmt.Errorf("plan: projection arity %d != index arity %d", schema.Len(), len(idx))
	}
	for _, j := range idx {
		if j < 0 || j >= child.Schema().Len() {
			return nil, fmt.Errorf("plan: projection index %d out of range", j)
		}
	}
	return &Project{child: child, schema: schema, idx: idx, est: est}, nil
}

// Schema implements Node.
func (p *Project) Schema() *relation.Schema { return p.schema }

// exec remaps the frame's column table — pure bookkeeping, no row is
// touched (late materialization).
func (p *Project) exec(ctx context.Context) (*vframe, error) {
	fr, err := p.child.exec(ctx)
	if err != nil {
		return nil, err
	}
	leafOf := make([]int, len(p.idx))
	colOf := make([]int, len(p.idx))
	for i, j := range p.idx {
		leafOf[i] = fr.leafOf[j]
		colOf[i] = fr.colOf[j]
	}
	return &vframe{leaves: fr.leaves, rows: fr.rows, n: fr.n, leafOf: leafOf, colOf: colOf}, nil
}

// EstRows implements Node.
func (p *Project) EstRows() int { return p.est }

// Children implements Node.
func (p *Project) Children() []Node { return []Node{p.child} }

// Label implements Node.
func (p *Project) Label() string {
	return fmt.Sprintf("Project [%s] [est=%d]", strings.Join(p.schema.Names(), ", "), p.est)
}

// Dedup materializes its input into a set-semantics Relation named after
// the view — the one duplicate-elimination point of a plan, elided where
// the bind proved its input free of duplicates.
type Dedup struct {
	child  Node
	name   string
	est    int
	elided string // the label of the proof the bind checked; empty: deduplicate
}

// NewDedup builds the dedup root.
func NewDedup(child Node, name string, est int) *Dedup {
	return &Dedup{child: child, name: name, est: est}
}

// Schema implements Node.
func (d *Dedup) Schema() *relation.Schema { return d.child.Schema() }

func (d *Dedup) exec(ctx context.Context) (*vframe, error) {
	r, err := d.run(ctx)
	if err != nil {
		return nil, err
	}
	return leafFrame(r.Columns()), nil
}

// run gathers every row of its input when elided (ExecuteBag), and else
// eliminates duplicates by hashing the output columns row by row
// (relation.Distinct: strict typed-key semantics, the relation's own row
// identity) and gathers only the surviving rows — the one point of an
// execution where payloads are copied. The extent keeps them as its
// columnar storage (relation.FromColumns), deferring its tuple image and
// its dedup index.
func (d *Dedup) run(ctx context.Context) (*relation.Relation, error) {
	if d.elided != "" {
		b, err := ExecuteBag(ctx, d.child)
		if err != nil {
			return nil, err
		}
		return relation.FromColumns(d.name, d.Schema(), b), nil
	}
	fr, err := d.child.exec(ctx)
	if err != nil {
		return nil, err
	}
	w := len(fr.leafOf)
	cols := make([]*relation.Column, w)
	sels := make([]relation.Sel, w)
	for i := 0; i < w; i++ {
		cols[i], sels[i] = fr.column(i)
	}
	keep, err := relation.Distinct(cols, sels, fr.n, vecChunk, ctx.Err)
	if err != nil {
		return nil, err
	}
	// Row vectors over the same leaf share one gathered index. Gathers are
	// straight copies; ctx is re-checked between columns.
	gathered := make(map[int]relation.Sel, len(fr.leaves))
	outCols := make([]relation.Column, w)
	for c := 0; c < w; c++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		leaf := fr.leafOf[c]
		idx, ok := gathered[leaf]
		if !ok {
			idx = gatherRows(sels[c], keep)
			gathered[leaf] = idx
		}
		outCols[c] = cols[c].Gather(idx)
	}
	return relation.FromColumns(d.name, d.Schema(), relation.BatchFromColumns(len(keep), outCols)), nil
}

// EstRows implements Node.
func (d *Dedup) EstRows() int { return d.est }

// Children implements Node.
func (d *Dedup) Children() []Node { return []Node{d.child} }

// Label implements Node.
func (d *Dedup) Label() string {
	return fmt.Sprintf("Dedup → %s%s [est=%d]", d.name, d.elided, d.est)
}

// Plan is a compiled physical plan for one view.
type Plan struct {
	// View is the view name the extent will carry.
	View string
	// Root is the plan root, a Dedup over the projection.
	Root *Dedup
}

// Execute runs the plan and returns the materialized extent with the view's
// output column names and set semantics. Cancellation is checked between
// operators and every vecChunk rows inside operator loops; a cancelled
// execution returns ctx.Err() and no partial extent.
func (p *Plan) Execute(ctx context.Context) (*relation.Relation, error) {
	return p.Root.run(ctx)
}

// Explain renders the operator tree, one operator per line with box-drawing
// indentation — the ExplainPlan debugging view.
func (p *Plan) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Plan %s\n", p.View)
	explainNode(&b, p.Root, "")
	return b.String()
}

func explainNode(b *strings.Builder, n Node, prefix string) {
	b.WriteString(n.Label())
	b.WriteByte('\n')
	kids := n.Children()
	for i, k := range kids {
		last := i == len(kids)-1
		b.WriteString(prefix)
		if last {
			b.WriteString("└─ ")
			explainNode(b, k, prefix+"   ")
		} else {
			b.WriteString("├─ ")
			explainNode(b, k, prefix+"│  ")
		}
	}
}
