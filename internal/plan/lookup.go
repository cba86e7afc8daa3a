package plan

import (
	"context"
	"fmt"

	"repro/internal/relation"
)

// IndexLookup joins a small input against a base relation through the
// relation's memoized key index (Relation.KeyIndex): each left row's
// composite key fetches the matching base rows directly, so cost is
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

// exec probes the index with each left frame row's key, in the TupleKey
// encoding the index files under, and reads the matched base rows one at a
// time (Relation.Row) into one small right leaf. It never asks the scanned
// relation for its columnar form: on a freshly landed relation that would
// ingest every row on every hop.
func (j *IndexLookup) exec(ctx context.Context, chunk int) (*vframe, error) {
	lfr, err := j.left.exec(ctx, chunk)
	if err != nil {
		return nil, err
	}
	rel := j.scan.rel
	idx := rel.KeyIndex(j.scanIdx)
	cols := make([]*relation.Column, len(j.leftIdx))
	sels := make([]relation.Sel, len(j.leftIdx))
	keyPos := make([]int, len(j.leftIdx))
	for i, pos := range j.leftIdx {
		cols[i], sels[i] = lfr.column(pos)
		keyPos[i] = i
	}
	key := make(relation.Tuple, len(cols))
	li := make([]int32, 0, lfr.n)
	matched := make([]relation.Tuple, 0, lfr.n)
	tk := newTicker(chunk)
	for i := 0; i < lfr.n; i++ {
		if err := tk.tick(ctx); err != nil {
			return nil, err
		}
		for c := range cols {
			key[c] = cols[c].Value(int(rowID(sels[c], i)))
		}
		for _, p := range idx.Get(relation.TupleKey(key, keyPos)) {
			if err := tk.tick(ctx); err != nil { // key groups may fan out
				return nil, err
			}
			li = append(li, int32(i))
			matched = append(matched, rel.Row(int(p)))
		}
	}
	ri := make([]int32, len(matched))
	for k := range ri {
		ri[k] = int32(k)
	}
	rfr := leafFrame(relation.NewColumnBatch(matched, rel.Schema().Len()))
	return narrow(ctx, joinFrame(lfr, rfr, li, ri), j.residual, chunk)
}

// EstRows implements Node.
func (j *IndexLookup) EstRows() int { return j.est }

// Children implements Node.
func (j *IndexLookup) Children() []Node { return []Node{j.left, j.scan} }

// Label implements Node.
func (j *IndexLookup) Label() string {
	return fmt.Sprintf("IndexLookup %s [est=%d]", j.scan.base, j.est)
}
