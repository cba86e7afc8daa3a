package plan

import (
	"context"
	"fmt"

	"repro/internal/relation"
)

// IndexLookup joins a small input against a base relation through the
// relation's memoized key index (Relation.KeyIndex): each left row's
// key hash fetches the matching base rows directly, so cost is
// O(|left| + matches) — no streaming pass over the base side. This is the
// physical shape of delta maintenance's "index retrieval at the source":
// a tiny delta batch probing a large local relation. The index is built
// once, shared through the scan's Rebind, and carried across update
// batches: Relation.WithDelta patches it for the rows a batch changes.
//
// Output rows are left ++ scan, duplicates preserved (bag semantics —
// each matched pair is one derivation witness). Non-equi clauses over the
// combined row apply as a residual.
type IndexLookup struct {
	left     Node
	scan     *Scan
	schema   *relation.Schema
	leftIdx  []int
	scanIdx  []int
	residual []relation.BoundClause // bound to schema
	est      int
}

// NewIndexLookup builds an index lookup of left ⋈ scan on the given
// equi-clauses (each with its left attribute in left's schema and right
// attribute in the scan's qualified schema) plus a residual conjunction
// over the combined schema.
func NewIndexLookup(left Node, scan *Scan, keys []relation.Clause, residual relation.And, est int) (*IndexLookup, error) {
	schema := relation.NewSchema(append(left.Schema().Attrs(), scan.Schema().Attrs()...)...)
	j := &IndexLookup{left: left, scan: scan, schema: schema, est: est}
	for _, k := range keys {
		li, ri := left.Schema().IndexOf(k.Left), scan.Schema().IndexOf(k.Right)
		if li < 0 || ri < 0 {
			return nil, fmt.Errorf("plan: lookup key %s not bound by join inputs", k)
		}
		j.leftIdx = append(j.leftIdx, li)
		j.scanIdx = append(j.scanIdx, ri)
	}
	if len(keys) == 0 {
		return nil, fmt.Errorf("plan: index lookup requires at least one equi-clause")
	}
	var err error
	if j.residual, err = relation.Bind(schema, residual); err != nil {
		return nil, err
	}
	return j, nil
}

// Schema implements Node.
func (j *IndexLookup) Schema() *relation.Schema { return j.schema }

// exec probes the index with each left frame row's key hash (Column.Hash),
// reads the candidate base rows one at a time (Relation.Row) into one small
// right leaf, and keeps the pairs whose key cells are KeyEqual. It never
// asks the scanned relation for its columnar form: on a freshly landed
// relation that would ingest every row on every hop.
func (j *IndexLookup) exec(ctx context.Context) (*vframe, error) {
	lfr, err := j.left.exec(ctx)
	if err != nil {
		return nil, err
	}
	rel := j.scan.rel
	idx := rel.KeyIndex(j.scanIdx)
	cols := make([]*relation.Column, len(j.leftIdx))
	sels := make([]relation.Sel, len(j.leftIdx))
	for i, pos := range j.leftIdx {
		cols[i], sels[i] = lfr.column(pos)
	}
	li := make([]int32, 0, lfr.n)
	var cand []int32
	matched := make([]relation.Tuple, 0, lfr.n)
	var tk ticker
	for i := 0; i < lfr.n; i++ {
		if err := tk.tick(ctx); err != nil {
			return nil, err
		}
		h := relation.HashSeed
		for c, col := range cols {
			h = col.Hash(int(rowID(sels[c], i)), h)
		}
		cand = idx.Probe(cand[:0], h)
		for _, p := range cand {
			if err := tk.tick(ctx); err != nil { // key groups may fan out
				return nil, err
			}
			li = append(li, int32(i))
			matched = append(matched, rel.Row(int(p)))
		}
	}
	right := relation.NewColumnBatch(matched, rel.Schema().Len())
	ri := make([]int32, 0, len(matched))
	k := 0
	for m, i := range li {
		same := true
		for c, col := range cols {
			if !col.KeyEqual(int(rowID(sels[c], int(i))), right.Col(j.scanIdx[c]), m) {
				same = false
				break
			}
		}
		if same {
			li[k], ri, k = i, append(ri, int32(m)), k+1
		}
	}
	return narrow(ctx, joinFrame(lfr, leafFrame(right), li[:k], ri), j.residual)
}

// EstRows implements Node.
func (j *IndexLookup) EstRows() int { return j.est }

// Children implements Node.
func (j *IndexLookup) Children() []Node { return []Node{j.left, j.scan} }

// Label implements Node.
func (j *IndexLookup) Label() string {
	return fmt.Sprintf("IndexLookup %s [est=%d]", j.scan.base, j.est)
}
