package plan

import (
	"cmp"
	"context"

	"repro/internal/relation"
)

// This file is the columnar execution path: a vectorized mirror of the
// Node tree that Compile builds alongside the tuple-at-a-time reference
// operators. The execution model is batch-at-a-time with late
// materialization:
//
//   - Scans ingest their base relation into a relation.ColumnBatch (cached
//     on the relation, so repeat executions skip the tuple→column
//     conversion entirely).
//   - Intermediate results are never tuple slices. A vframe holds the
//     source batches ("leaves") plus one row-index vector per leaf; filters
//     narrow the frame by rewriting the row vectors through a selection
//     vector, joins append the other side's leaves and gather both sides'
//     row vectors through the matched index pairs, and Project just remaps
//     the frame's column table — all payload copying is deferred.
//   - Only the Dedup root materializes: it hashes the output columns row
//     by row (relation.Distinct, the kernel Relation.Project shares),
//     keeps the first representative of each key, and gathers exactly the
//     surviving rows into the extent's column vectors.
//
// Cancellation follows the tuple path's contract: kernels poll ctx every
// vecChunk rows (the batch-boundary analogue of rowBatch), so a cancelled
// execution aborts promptly with ctx.Err() and no partial extent.

// vecChunk is the number of rows a vectorized kernel processes between two
// context polls — the columnar analogue of rowBatch, aligned with it by
// default. The plan-grid benchmark varies it to measure batch-size
// sensitivity; it is read once per Execute and must not be changed while
// executions are in flight.
var vecChunk = rowBatch

// vnode is one vectorized operator; exec returns the operator's result
// frame. All execution state lives in the returned frames, so a vnode tree
// is immutable and safe for any number of concurrent executions.
type vnode interface {
	exec(ctx context.Context, chunk int) (*vframe, error)
}

// vframe is a batch of rows flowing between vectorized operators, stored
// as references into source batches instead of materialized tuples: one
// row-index vector per leaf batch (nil = identity, i.e. all batch rows in
// order), plus the column table mapping each output-schema position to
// (leaf, column).
type vframe struct {
	leaves []*relation.ColumnBatch
	rows   []relation.Sel // per leaf; nil = identity, length n otherwise
	n      int
	leafOf []int
	colOf  []int
}

// column resolves an output-schema position to its backing column vector
// and the frame's row-index vector over it.
func (f *vframe) column(pos int) (*relation.Column, relation.Sel) {
	leaf := f.leafOf[pos]
	return f.leaves[leaf].Col(f.colOf[pos]), f.rows[leaf]
}

// rowID maps frame row i through a row-index vector (nil = identity).
func rowID(sel relation.Sel, i int) int32 {
	if sel == nil {
		return int32(i)
	}
	return sel[i]
}

// compact narrows the frame to the frame-row positions listed in keep,
// rewriting every leaf's row vector. keep == nil means "all rows" and is a
// no-op.
func (f *vframe) compact(keep relation.Sel) {
	if keep == nil {
		return
	}
	for l, sel := range f.rows {
		f.rows[l] = gatherRows(sel, keep)
	}
	f.n = len(keep)
}

// gatherRows composes a row vector with a selection: out[k] = sel[keep[k]].
func gatherRows(sel relation.Sel, keep []int32) relation.Sel {
	out := make(relation.Sel, len(keep))
	if sel == nil {
		copy(out, keep)
		return out
	}
	for k, p := range keep {
		out[k] = sel[p]
	}
	return out
}

// ticker polls ctx once every chunk ticks, by countdown rather than
// modulo, so the per-row cost inside hot kernels is one decrement and one
// branch. The first tick of a fresh ticker polls immediately, preserving
// the reference path's poll-at-loop-entry behavior.
type ticker struct {
	left  int
	chunk int
}

func newTicker(chunk int) ticker { return ticker{left: 1, chunk: chunk} }

func (t *ticker) tick(ctx context.Context) error {
	t.left--
	if t.left > 0 {
		return nil
	}
	t.left = t.chunk
	return ctx.Err()
}

// oaTable is the batched hash join's open-addressing index over build rows
// (the dedup root hashes through relation.Distinct). Slots hold the full
// 64-bit hash plus the frame position (+1; 0 marks empty), capacity is the
// power of two giving load factor ≤ ½, and collisions probe linearly.
// Duplicate keys occupy one slot each, so a join probe walks every row of
// its key group. Equality is always re-verified by the caller with
// KeyEqual — hashes accelerate, they never decide.
type oaTable struct {
	mask   uint32
	hashes []uint64
	pos    []int32
}

func newOATable(n int) *oaTable {
	capacity := uint32(8)
	for capacity < uint32(n)*2 {
		capacity <<= 1
	}
	return &oaTable{
		mask:   capacity - 1,
		hashes: make([]uint64, capacity),
		pos:    make([]int32, capacity),
	}
}

// insert stores frame position p under hash h in the next free slot of its
// probe chain (duplicates keep their own slots).
func (t *oaTable) insert(h uint64, p int32) {
	i := uint32(h) & t.mask
	for t.pos[i] != 0 {
		i = (i + 1) & t.mask
	}
	t.hashes[i] = h
	t.pos[i] = p + 1
}

// vscan ingests a base relation into columnar form. The batch is cached on
// the relation (shared with every rebound view of the same tuple storage),
// so in steady state a scan is one atomic load.
type vscan struct {
	rel   *relation.Relation
	width int
}

func (s *vscan) exec(ctx context.Context, chunk int) (*vframe, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b := s.rel.Columns()
	leafOf := make([]int, s.width)
	colOf := make([]int, s.width)
	for i := range colOf {
		colOf[i] = i
	}
	return &vframe{
		leaves: []*relation.ColumnBatch{b},
		rows:   []relation.Sel{nil},
		n:      b.Rows(),
		leafOf: leafOf,
		colOf:  colOf,
	}, nil
}

// vclause is one compiled primitive clause of a filter or join residual:
// attribute references are resolved to frame-schema positions at plan
// compile time, so batch evaluation does no name lookups and no per-tuple
// closure dispatch.
type vclause struct {
	lpos int
	rpos int // -1 for a constant comparison
	op   relation.Op
	cval relation.Value
}

// vfilter applies a conjunction of compiled clauses to its input frame,
// clause by clause over the whole batch, narrowing a selection vector and
// compacting the frame once at the end.
type vfilter struct {
	child vnode
	prog  []vclause
}

func (f *vfilter) exec(ctx context.Context, chunk int) (*vframe, error) {
	fr, err := f.child.exec(ctx, chunk)
	if err != nil {
		return nil, err
	}
	cur, err := runProg(ctx, fr, f.prog, chunk)
	if err != nil {
		return nil, err
	}
	fr.compact(cur)
	return fr, nil
}

// runProg evaluates a clause conjunction over the frame, returning the
// surviving frame-row positions (nil = all rows survived trivially, i.e.
// the program was empty).
func runProg(ctx context.Context, fr *vframe, prog []vclause, chunk int) (relation.Sel, error) {
	var cur relation.Sel
	for i := range prog {
		var err error
		cur, err = clauseSelect(ctx, fr, &prog[i], cur, chunk)
		if err != nil {
			return nil, err
		}
	}
	return cur, nil
}

// passOrdered applies op to one ordered pair with the exact semantics of
// Op.Apply for same-typed operands: comparison sign for the inequalities
// (NaN compares neither below nor above, so <= and >= both pass) and value
// equality for =/<> (NaN equals nothing).
func passOrdered[T cmp.Ordered](op relation.Op, a, b T) bool {
	switch op {
	case relation.OpLT:
		return a < b
	case relation.OpLE:
		return !(a > b)
	case relation.OpEQ:
		return a == b
	case relation.OpGE:
		return !(a < b)
	case relation.OpGT:
		return a > b
	case relation.OpNE:
		return a != b
	}
	return false
}

// selConst is the typed kernel for <column> θ <constant>: one pass over the
// candidate rows comparing a plain payload slice against a scalar.
func selConst[T cmp.Ordered](ctx context.Context, vals []T, lsel relation.Sel, cur relation.Sel, n int, op relation.Op, c T, chunk int) (relation.Sel, error) {
	out := make(relation.Sel, 0, candCount(cur, n))
	tk := newTicker(chunk)
	if cur == nil {
		for i := 0; i < n; i++ {
			if err := tk.tick(ctx); err != nil {
				return nil, err
			}
			if passOrdered(op, vals[rowID(lsel, i)], c) {
				out = append(out, int32(i))
			}
		}
		return out, nil
	}
	for _, p := range cur {
		if err := tk.tick(ctx); err != nil {
			return nil, err
		}
		if passOrdered(op, vals[rowID(lsel, int(p))], c) {
			out = append(out, p)
		}
	}
	return out, nil
}

// selAttr is the typed kernel for <column> θ <column> over two same-typed
// vectors (possibly living in different leaves).
func selAttr[T cmp.Ordered](ctx context.Context, lvals []T, lsel relation.Sel, rvals []T, rsel relation.Sel, cur relation.Sel, n int, op relation.Op, chunk int) (relation.Sel, error) {
	out := make(relation.Sel, 0, candCount(cur, n))
	tk := newTicker(chunk)
	if cur == nil {
		for i := 0; i < n; i++ {
			if err := tk.tick(ctx); err != nil {
				return nil, err
			}
			if passOrdered(op, lvals[rowID(lsel, i)], rvals[rowID(rsel, i)]) {
				out = append(out, int32(i))
			}
		}
		return out, nil
	}
	for _, p := range cur {
		if err := tk.tick(ctx); err != nil {
			return nil, err
		}
		q := int(p)
		if passOrdered(op, lvals[rowID(lsel, q)], rvals[rowID(rsel, q)]) {
			out = append(out, p)
		}
	}
	return out, nil
}

// selGeneric is the boxed fallback kernel (mixed-type columns, NULLs,
// cross-type comparisons): it still runs without tuple materialization or
// name lookups, via Op.Apply on boxed values.
func selGeneric(ctx context.Context, fr *vframe, k *vclause, cur relation.Sel, chunk int) (relation.Sel, error) {
	lcol, lsel := fr.column(k.lpos)
	var rcol *relation.Column
	var rsel relation.Sel
	if k.rpos >= 0 {
		rcol, rsel = fr.column(k.rpos)
	}
	eval := func(p int) (bool, error) {
		rv := k.cval
		if rcol != nil {
			rv = rcol.Value(int(rowID(rsel, p)))
		}
		return k.op.Apply(lcol.Value(int(rowID(lsel, p))), rv)
	}
	out := make(relation.Sel, 0, candCount(cur, fr.n))
	tk := newTicker(chunk)
	if cur == nil {
		for i := 0; i < fr.n; i++ {
			if err := tk.tick(ctx); err != nil {
				return nil, err
			}
			ok, err := eval(i)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, int32(i))
			}
		}
		return out, nil
	}
	for _, p := range cur {
		if err := tk.tick(ctx); err != nil {
			return nil, err
		}
		ok, err := eval(int(p))
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, p)
		}
	}
	return out, nil
}

// candCount sizes a selection-output allocation: half the candidates,
// mirroring the tuple filter's len(in)/2 guess, with a small floor.
func candCount(cur relation.Sel, n int) int {
	if cur != nil {
		n = len(cur)
	}
	if n < 16 {
		return n
	}
	return n / 2
}

// floatAt returns a float64 reader over a numeric column, for the mixed
// int/float comparison paths (same widening as Value.AsFloat).
func floatAt(c *relation.Column) func(int32) float64 {
	if c.Kind == relation.TypeInt {
		vals := c.Ints
		return func(i int32) float64 { return float64(vals[i]) }
	}
	vals := c.Floats
	return func(i int32) float64 { return vals[i] }
}

func isNumericKind(t relation.Type) bool {
	return t == relation.TypeInt || t == relation.TypeFloat
}

// selAttrNum handles numeric attr-attr comparisons with mixed int/float
// columns by widening both sides to float64, exactly as Value.AsFloat does.
func selAttrNum(ctx context.Context, lcol *relation.Column, lsel relation.Sel, rcol *relation.Column, rsel relation.Sel, cur relation.Sel, n int, op relation.Op, chunk int) (relation.Sel, error) {
	lf, rf := floatAt(lcol), floatAt(rcol)
	out := make(relation.Sel, 0, candCount(cur, n))
	tk := newTicker(chunk)
	if cur == nil {
		for i := 0; i < n; i++ {
			if err := tk.tick(ctx); err != nil {
				return nil, err
			}
			if passOrdered(op, lf(rowID(lsel, i)), rf(rowID(rsel, i))) {
				out = append(out, int32(i))
			}
		}
		return out, nil
	}
	for _, p := range cur {
		if err := tk.tick(ctx); err != nil {
			return nil, err
		}
		q := int(p)
		if passOrdered(op, lf(rowID(lsel, q)), rf(rowID(rsel, q))) {
			out = append(out, p)
		}
	}
	return out, nil
}

// selConstIntFloat compares an int column against a float constant by
// widening each element, the Value.AsFloat semantics of the reference.
func selConstIntFloat(ctx context.Context, vals []int64, lsel relation.Sel, cur relation.Sel, n int, op relation.Op, c float64, chunk int) (relation.Sel, error) {
	out := make(relation.Sel, 0, candCount(cur, n))
	tk := newTicker(chunk)
	if cur == nil {
		for i := 0; i < n; i++ {
			if err := tk.tick(ctx); err != nil {
				return nil, err
			}
			if passOrdered(op, float64(vals[rowID(lsel, i)]), c) {
				out = append(out, int32(i))
			}
		}
		return out, nil
	}
	for _, p := range cur {
		if err := tk.tick(ctx); err != nil {
			return nil, err
		}
		if passOrdered(op, float64(vals[rowID(lsel, int(p))]), c) {
			out = append(out, p)
		}
	}
	return out, nil
}

// clauseSelect dispatches one clause to its typed kernel, falling back to
// the boxed kernel for mixed-type or NULL-bearing operands.
func clauseSelect(ctx context.Context, fr *vframe, k *vclause, cur relation.Sel, chunk int) (relation.Sel, error) {
	lcol, lsel := fr.column(k.lpos)
	n := fr.n
	if k.rpos < 0 {
		cv := k.cval
		switch {
		case lcol.Kind == relation.TypeInt && cv.Type() == relation.TypeInt:
			return selConst(ctx, lcol.Ints, lsel, cur, n, k.op, cv.AsInt(), chunk)
		case lcol.Kind == relation.TypeFloat && isNumericKind(cv.Type()):
			return selConst(ctx, lcol.Floats, lsel, cur, n, k.op, cv.AsFloat(), chunk)
		case lcol.Kind == relation.TypeInt && cv.Type() == relation.TypeFloat:
			return selConstIntFloat(ctx, lcol.Ints, lsel, cur, n, k.op, cv.AsFloat(), chunk)
		case lcol.Kind == relation.TypeString && cv.Type() == relation.TypeString:
			return selConst(ctx, lcol.Strs, lsel, cur, n, k.op, cv.AsString(), chunk)
		default:
			return selGeneric(ctx, fr, k, cur, chunk)
		}
	}
	rcol, rsel := fr.column(k.rpos)
	switch {
	case lcol.Kind == relation.TypeInt && rcol.Kind == relation.TypeInt:
		return selAttr(ctx, lcol.Ints, lsel, rcol.Ints, rsel, cur, n, k.op, chunk)
	case lcol.Kind == relation.TypeFloat && rcol.Kind == relation.TypeFloat:
		return selAttr(ctx, lcol.Floats, lsel, rcol.Floats, rsel, cur, n, k.op, chunk)
	case isNumericKind(lcol.Kind) && isNumericKind(rcol.Kind):
		return selAttrNum(ctx, lcol, lsel, rcol, rsel, cur, n, k.op, chunk)
	case lcol.Kind == relation.TypeString && rcol.Kind == relation.TypeString:
		return selAttr(ctx, lcol.Strs, lsel, rcol.Strs, rsel, cur, n, k.op, chunk)
	default:
		return selGeneric(ctx, fr, k, cur, chunk)
	}
}

// vhashjoin is the batched hash join: the smaller input's key columns are
// hashed row by row into an open-addressing u64 table (no key strings),
// the larger input probes a key-column slice at a time, and matches are
// emitted as row-index pairs — payload copying is deferred to the plan
// root. Output columns are always left ++ right regardless of build side,
// matching the reference operator.
type vhashjoin struct {
	left, right vnode
	lkey, rkey  []int // key positions in the left/right input schemas
	residual    []vclause
}

func (j *vhashjoin) exec(ctx context.Context, chunk int) (*vframe, error) {
	lfr, err := j.left.exec(ctx, chunk)
	if err != nil {
		return nil, err
	}
	rfr, err := j.right.exec(ctx, chunk)
	if err != nil {
		return nil, err
	}
	bfr, pfr := lfr, rfr
	bkey, pkey := j.lkey, j.rkey
	buildIsLeft := true
	if rfr.n < lfr.n {
		bfr, pfr = rfr, lfr
		bkey, pkey = j.rkey, j.lkey
		buildIsLeft = false
	}

	bcols := make([]*relation.Column, len(bkey))
	bsels := make([]relation.Sel, len(bkey))
	for i, pos := range bkey {
		bcols[i], bsels[i] = bfr.column(pos)
	}
	pcols := make([]*relation.Column, len(pkey))
	psels := make([]relation.Sel, len(pkey))
	for i, pos := range pkey {
		pcols[i], psels[i] = pfr.column(pos)
	}

	// Build: one slot per build row under its composite key hash.
	ht := newOATable(bfr.n)
	tk := newTicker(chunk)
	for i := 0; i < bfr.n; i++ {
		if err := tk.tick(ctx); err != nil {
			return nil, err
		}
		h := relation.HashSeed
		for c := range bcols {
			h = bcols[c].Hash(int(rowID(bsels[c], i)), h)
		}
		ht.insert(h, int32(i))
	}

	// Probe: emit matched (build, probe) frame-row pairs. The emit ticker
	// bounds cancellation latency when key groups fan out quadratically.
	bi := make([]int32, 0, pfr.n)
	pi := make([]int32, 0, pfr.n)
	tk = newTicker(chunk)
	etk := newTicker(chunk)
	for p := 0; p < pfr.n; p++ {
		if err := tk.tick(ctx); err != nil {
			return nil, err
		}
		h := relation.HashSeed
		for c := range pcols {
			h = pcols[c].Hash(int(rowID(psels[c], p)), h)
		}
		for s := uint32(h) & ht.mask; ht.pos[s] != 0; s = (s + 1) & ht.mask {
			if ht.hashes[s] != h {
				continue
			}
			if err := etk.tick(ctx); err != nil {
				return nil, err
			}
			e := ht.pos[s] - 1
			match := true
			for c := range pcols {
				if !pcols[c].KeyEqual(int(rowID(psels[c], p)), bcols[c], int(rowID(bsels[c], int(e)))) {
					match = false
					break
				}
			}
			if match {
				bi = append(bi, e)
				pi = append(pi, int32(p))
			}
		}
	}
	li, ri := bi, pi
	if !buildIsLeft {
		li, ri = pi, bi
	}

	out := joinFrame(lfr, rfr, li, ri)
	cur, err := runProg(ctx, out, j.residual, chunk)
	if err != nil {
		return nil, err
	}
	out.compact(cur)
	return out, nil
}

// joinFrame assembles the combined frame of a join: the leaves of both
// inputs side by side, each leaf's row vector gathered through the matched
// index pairs, and the column table concatenated left ++ right.
func joinFrame(lfr, rfr *vframe, li, ri []int32) *vframe {
	out := &vframe{
		leaves: make([]*relation.ColumnBatch, 0, len(lfr.leaves)+len(rfr.leaves)),
		rows:   make([]relation.Sel, 0, len(lfr.leaves)+len(rfr.leaves)),
		n:      len(li),
		leafOf: make([]int, 0, len(lfr.leafOf)+len(rfr.leafOf)),
		colOf:  make([]int, 0, len(lfr.colOf)+len(rfr.colOf)),
	}
	out.leaves = append(out.leaves, lfr.leaves...)
	for _, sel := range lfr.rows {
		out.rows = append(out.rows, gatherRows(sel, li))
	}
	out.leafOf = append(out.leafOf, lfr.leafOf...)
	out.colOf = append(out.colOf, lfr.colOf...)
	shift := len(lfr.leaves)
	out.leaves = append(out.leaves, rfr.leaves...)
	for _, sel := range rfr.rows {
		out.rows = append(out.rows, gatherRows(sel, ri))
	}
	for _, l := range rfr.leafOf {
		out.leafOf = append(out.leafOf, l+shift)
	}
	out.colOf = append(out.colOf, rfr.colOf...)
	return out
}

// vloop is the vectorized nested-loop fallback (no usable equi-key): every
// left/right row-index pair is formed and the condition evaluated over the
// column vectors directly — no concatenated tuples are ever built.
type vloop struct {
	left, right vnode
	cond        []vclause // positions over the combined left ++ right schema
	leftWidth   int
}

func (j *vloop) exec(ctx context.Context, chunk int) (*vframe, error) {
	lfr, err := j.left.exec(ctx, chunk)
	if err != nil {
		return nil, err
	}
	rfr, err := j.right.exec(ctx, chunk)
	if err != nil {
		return nil, err
	}
	// Resolve each clause operand to its side's column once.
	type operand struct {
		col  *relation.Column
		sel  relation.Sel
		left bool
	}
	resolve := func(pos int) operand {
		if pos < j.leftWidth {
			c, s := lfr.column(pos)
			return operand{col: c, sel: s, left: true}
		}
		c, s := rfr.column(pos - j.leftWidth)
		return operand{col: c, sel: s}
	}
	type pairClause struct {
		l, r operand
		op   relation.Op
		cval relation.Value
		attr bool
	}
	prog := make([]pairClause, len(j.cond))
	for i, k := range j.cond {
		pc := pairClause{l: resolve(k.lpos), op: k.op, cval: k.cval}
		if k.rpos >= 0 {
			pc.r = resolve(k.rpos)
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
	tk := newTicker(chunk)
	for a := 0; a < lfr.n; a++ {
		for b := 0; b < rfr.n; b++ {
			if err := tk.tick(ctx); err != nil {
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

// vproject narrows and reorders the frame's column table to the view
// interface — pure bookkeeping, no row is touched (late materialization).
type vproject struct {
	child vnode
	idx   []int
}

func (p *vproject) exec(ctx context.Context, chunk int) (*vframe, error) {
	fr, err := p.child.exec(ctx, chunk)
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

// vdedup is the materialization root: it eliminates duplicates by hashing
// the output columns row by row (relation.Distinct: strict typed-key
// semantics, the same grouping Tuple.Key produces) and gathers only the
// surviving rows — the single point of the columnar path where payloads
// are copied. The resulting relation defers its tuple image and its
// string-keyed index (relation.FromColumns), so serving reads never build
// key strings.
type vdedup struct {
	child  vnode
	name   string
	schema *relation.Schema
}

func (d *vdedup) run(ctx context.Context, chunk int) (*relation.Relation, error) {
	fr, err := d.child.exec(ctx, chunk)
	if err != nil {
		return nil, err
	}
	w := len(fr.leafOf)
	cols := make([]*relation.Column, w)
	sels := make([]relation.Sel, w)
	for i := 0; i < w; i++ {
		cols[i], sels[i] = fr.column(i)
	}
	keep, err := relation.Distinct(cols, sels, fr.n, chunk, ctx.Err)
	if err != nil {
		return nil, err
	}

	// Gather the survivors into compact typed columns — the only payload
	// copy of the whole execution — and hand them to the extent as-is.
	// Tuple boxing is deferred further still: relation.FromColumns
	// materializes the tuple image only when a consumer first asks for
	// tuples, so cardinality reads and columnar re-scans never pay for it.
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
	return relation.FromColumns(d.name, d.schema, relation.BatchFromColumns(len(keep), outCols)), nil
}

// vectorize compiles the columnar mirror of a standard operator tree
// rooted at a Dedup. It returns nil when the tree contains an operator the
// columnar path does not know (hand-built Node implementations, nested
// Dedups, non-clause conditions) — Execute then runs the tuple-at-a-time
// reference path instead.
func vectorize(root Node) *vdedup {
	d, ok := root.(*Dedup)
	if !ok {
		return nil
	}
	child, ok := vectorizeNode(d.child)
	if !ok {
		return nil
	}
	return &vdedup{child: child, name: d.name, schema: d.child.Schema()}
}

func vectorizeNode(n Node) (vnode, bool) {
	switch t := n.(type) {
	case *Scan:
		return &vscan{rel: t.rel, width: t.rel.Schema().Len()}, true
	case *BatchScan:
		return &vbatch{batch: t.batch}, true
	case *Filter:
		child, ok := vectorizeNode(t.child)
		if !ok {
			return nil, false
		}
		prog, ok := compileClauses(t.cond, t.child.Schema())
		if !ok {
			return nil, false
		}
		return &vfilter{child: child, prog: prog}, true
	case *HashJoin:
		left, ok := vectorizeNode(t.left)
		if !ok {
			return nil, false
		}
		right, ok := vectorizeNode(t.right)
		if !ok {
			return nil, false
		}
		residual, ok := compileClauses(t.residual, t.schema)
		if !ok {
			return nil, false
		}
		return &vhashjoin{left: left, right: right, lkey: t.leftIdx, rkey: t.rightIdx, residual: residual}, true
	case *NestedLoop:
		left, ok := vectorizeNode(t.left)
		if !ok {
			return nil, false
		}
		right, ok := vectorizeNode(t.right)
		if !ok {
			return nil, false
		}
		cond, ok := compileClauses(t.cond, t.schema)
		if !ok {
			return nil, false
		}
		return &vloop{left: left, right: right, cond: cond, leftWidth: t.left.Schema().Len()}, true
	case *Project:
		child, ok := vectorizeNode(t.child)
		if !ok {
			return nil, false
		}
		return &vproject{child: child, idx: t.idx}, true
	default:
		return nil, false
	}
}

// compileClauses flattens a Condition into compiled clauses with
// frame-schema positions. Conditions outside the And/Clause/True grammar
// are not vectorizable.
func compileClauses(cond relation.Condition, s *relation.Schema) ([]vclause, bool) {
	var prog []vclause
	var add func(c relation.Condition) bool
	add = func(c relation.Condition) bool {
		switch t := c.(type) {
		case nil, relation.True:
			return true
		case relation.Clause:
			lpos := s.IndexOf(t.Left)
			if lpos < 0 {
				return false
			}
			k := vclause{lpos: lpos, rpos: -1, op: t.Op, cval: t.Const}
			if t.Right != "" {
				rpos := s.IndexOf(t.Right)
				if rpos < 0 {
					return false
				}
				k.rpos = rpos
			}
			prog = append(prog, k)
			return true
		case relation.And:
			for _, sub := range t {
				if !add(sub) {
					return false
				}
			}
			return true
		default:
			return false
		}
	}
	if !add(cond) {
		return nil, false
	}
	return prog, true
}
