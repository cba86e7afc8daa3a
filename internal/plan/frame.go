package plan

import (
	"cmp"
	"context"

	"repro/internal/relation"
)

// This file is the executor's shared machinery: the frame every operator's
// exec returns and the kernels operators run over frames. The execution
// model is batch-at-a-time with late materialization:
//
//   - Scans read their base relation's relation.ColumnBatch (cached on the
//     relation, so repeat executions skip the tuple→column conversion).
//   - Intermediate results are never tuple slices. A vframe holds the
//     source batches ("leaves") plus one row-index vector per leaf; filters
//     narrow the frame by rewriting the row vectors through a selection
//     vector, joins append the other side's leaves and gather both sides'
//     row vectors through the matched index pairs, and Project just remaps
//     the frame's column table — all payload copying is deferred.
//   - Only the Dedup root (or ExecuteBag, for a bag result) materializes,
//     gathering exactly the surviving rows into compact column vectors.

// vecChunk is the number of rows a kernel processes between two context
// polls, bounding both the polling overhead and the latency of a
// cancellation. Tickers reread it at every poll; tests shrink it to force
// many batch boundaries, never while an execution is in flight.
var vecChunk = 4096

// vframe is a batch of rows flowing between operators, stored as
// references into source batches instead of materialized tuples: one
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

// leafFrame is the frame over every row of one batch, in order.
func leafFrame(b *relation.ColumnBatch) *vframe {
	colOf := make([]int, b.Width())
	for i := range colOf {
		colOf[i] = i
	}
	return &vframe{
		leaves: []*relation.ColumnBatch{b},
		rows:   []relation.Sel{nil},
		n:      b.Rows(),
		leafOf: make([]int, b.Width()),
		colOf:  colOf,
	}
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

// ticker polls ctx once every vecChunk ticks, by countdown rather than
// modulo, so the per-row cost inside hot kernels is one decrement and one
// branch. The zero ticker polls on its first tick, so a loop observes a
// cancellation on entry.
type ticker struct {
	left int
}

// tick counts n ticks — a row, or a block of rows or of candidates.
func (t *ticker) tick(ctx context.Context, n int) error {
	if t.left -= n; t.left > 0 {
		return nil
	}
	t.left = vecChunk
	return ctx.Err()
}

// narrow keeps the frame rows that pass every clause of prog, evaluating
// clause by clause over the whole batch into a selection vector and
// compacting the frame once at the end.
func narrow(ctx context.Context, fr *vframe, prog []relation.BoundClause) (*vframe, error) {
	var cur relation.Sel
	for i := range prog {
		var err error
		if cur, err = clauseSelect(ctx, fr, &prog[i], cur); err != nil {
			return nil, err
		}
	}
	fr.compact(cur)
	return fr, nil
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
func selConst[T cmp.Ordered](ctx context.Context, vals []T, lsel relation.Sel, cur relation.Sel, n int, op relation.Op, c T) (relation.Sel, error) {
	out := make(relation.Sel, 0, candCount(cur, n))
	var tk ticker
	if cur == nil {
		for i := 0; i < n; i++ {
			if err := tk.tick(ctx, 1); err != nil {
				return nil, err
			}
			if passOrdered(op, vals[rowID(lsel, i)], c) {
				out = append(out, int32(i))
			}
		}
		return out, nil
	}
	for _, p := range cur {
		if err := tk.tick(ctx, 1); err != nil {
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
func selAttr[T cmp.Ordered](ctx context.Context, lvals []T, lsel relation.Sel, rvals []T, rsel relation.Sel, cur relation.Sel, n int, op relation.Op) (relation.Sel, error) {
	out := make(relation.Sel, 0, candCount(cur, n))
	var tk ticker
	if cur == nil {
		for i := 0; i < n; i++ {
			if err := tk.tick(ctx, 1); err != nil {
				return nil, err
			}
			if passOrdered(op, lvals[rowID(lsel, i)], rvals[rowID(rsel, i)]) {
				out = append(out, int32(i))
			}
		}
		return out, nil
	}
	for _, p := range cur {
		if err := tk.tick(ctx, 1); err != nil {
			return nil, err
		}
		q := int(p)
		if passOrdered(op, lvals[rowID(lsel, q)], rvals[rowID(rsel, q)]) {
			out = append(out, p)
		}
	}
	return out, nil
}

// selGeneric is the boxed kernel (mixed-type columns, NULLs, cross-type
// comparisons): it still runs without tuple materialization or name
// lookups, via Op.Apply on boxed values.
func selGeneric(ctx context.Context, fr *vframe, k *relation.BoundClause, cur relation.Sel) (relation.Sel, error) {
	lcol, lsel := fr.column(k.Left)
	var rcol *relation.Column
	var rsel relation.Sel
	if k.Right >= 0 {
		rcol, rsel = fr.column(k.Right)
	}
	eval := func(p int) (bool, error) {
		rv := k.Const
		if rcol != nil {
			rv = rcol.Value(int(rowID(rsel, p)))
		}
		return k.Op.Apply(lcol.Value(int(rowID(lsel, p))), rv)
	}
	out := make(relation.Sel, 0, candCount(cur, fr.n))
	var tk ticker
	if cur == nil {
		for i := 0; i < fr.n; i++ {
			if err := tk.tick(ctx, 1); err != nil {
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
		if err := tk.tick(ctx, 1); err != nil {
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

// candCount sizes a selection-output allocation: half the candidates, with
// a small floor.
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
func selAttrNum(ctx context.Context, lcol *relation.Column, lsel relation.Sel, rcol *relation.Column, rsel relation.Sel, cur relation.Sel, n int, op relation.Op) (relation.Sel, error) {
	lf, rf := floatAt(lcol), floatAt(rcol)
	out := make(relation.Sel, 0, candCount(cur, n))
	var tk ticker
	if cur == nil {
		for i := 0; i < n; i++ {
			if err := tk.tick(ctx, 1); err != nil {
				return nil, err
			}
			if passOrdered(op, lf(rowID(lsel, i)), rf(rowID(rsel, i))) {
				out = append(out, int32(i))
			}
		}
		return out, nil
	}
	for _, p := range cur {
		if err := tk.tick(ctx, 1); err != nil {
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
// widening each element, the Value.AsFloat semantics of Op.Apply.
func selConstIntFloat(ctx context.Context, vals []int64, lsel relation.Sel, cur relation.Sel, n int, op relation.Op, c float64) (relation.Sel, error) {
	out := make(relation.Sel, 0, candCount(cur, n))
	var tk ticker
	if cur == nil {
		for i := 0; i < n; i++ {
			if err := tk.tick(ctx, 1); err != nil {
				return nil, err
			}
			if passOrdered(op, float64(vals[rowID(lsel, i)]), c) {
				out = append(out, int32(i))
			}
		}
		return out, nil
	}
	for _, p := range cur {
		if err := tk.tick(ctx, 1); err != nil {
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
func clauseSelect(ctx context.Context, fr *vframe, k *relation.BoundClause, cur relation.Sel) (relation.Sel, error) {
	lcol, lsel := fr.column(k.Left)
	n := fr.n
	if k.Right < 0 {
		cv := k.Const
		switch {
		case lcol.Kind == relation.TypeInt && cv.Type() == relation.TypeInt:
			return selConst(ctx, lcol.Ints, lsel, cur, n, k.Op, cv.AsInt())
		case lcol.Kind == relation.TypeFloat && isNumericKind(cv.Type()):
			return selConst(ctx, lcol.Floats, lsel, cur, n, k.Op, cv.AsFloat())
		case lcol.Kind == relation.TypeInt && cv.Type() == relation.TypeFloat:
			return selConstIntFloat(ctx, lcol.Ints, lsel, cur, n, k.Op, cv.AsFloat())
		case lcol.Kind == relation.TypeString && cv.Type() == relation.TypeString:
			return selConst(ctx, lcol.Strs, lsel, cur, n, k.Op, cv.AsString())
		default:
			return selGeneric(ctx, fr, k, cur)
		}
	}
	rcol, rsel := fr.column(k.Right)
	switch {
	case lcol.Kind == relation.TypeInt && rcol.Kind == relation.TypeInt:
		return selAttr(ctx, lcol.Ints, lsel, rcol.Ints, rsel, cur, n, k.Op)
	case lcol.Kind == relation.TypeFloat && rcol.Kind == relation.TypeFloat:
		return selAttr(ctx, lcol.Floats, lsel, rcol.Floats, rsel, cur, n, k.Op)
	case isNumericKind(lcol.Kind) && isNumericKind(rcol.Kind):
		return selAttrNum(ctx, lcol, lsel, rcol, rsel, cur, n, k.Op)
	case lcol.Kind == relation.TypeString && rcol.Kind == relation.TypeString:
		return selAttr(ctx, lcol.Strs, lsel, rcol.Strs, rsel, cur, n, k.Op)
	default:
		return selGeneric(ctx, fr, k, cur)
	}
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
