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
// Output tuples are left ++ scan, duplicates preserved (bag semantics —
// each matched pair is one derivation witness). Non-equi clauses over the
// combined row apply as a residual.
type IndexLookup struct {
	left          Node
	scan          *Scan
	schema        *relation.Schema
	leftIdx       []int
	scanIdx       []int
	keys          []relation.Clause
	residual      relation.And
	residualBound relation.Bound // nil when there is no residual
	est           int
}

// NewIndexLookup builds an index lookup of left ⋈ scan on the given
// equi-clauses (each with its left attribute in left's schema and right
// attribute in the scan's qualified schema) plus a residual conjunction
// over the combined schema.
func NewIndexLookup(left Node, scan *Scan, keys []relation.Clause, residual relation.And, est int) (*IndexLookup, error) {
	schema := relation.NewSchema(append(left.Schema().Attrs(), scan.Schema().Attrs()...)...)
	j := &IndexLookup{left: left, scan: scan, schema: schema, keys: keys, residual: residual, est: est}
	for _, k := range keys {
		li, ri := left.Schema().IndexOf(k.Left), scan.Schema().IndexOf(k.Right)
		if li < 0 || ri < 0 {
			return nil, fmt.Errorf("plan: lookup key %s not bound by join inputs", k)
		}
		j.leftIdx = append(j.leftIdx, li)
		j.scanIdx = append(j.scanIdx, ri)
	}
	if len(j.keys) == 0 {
		return nil, fmt.Errorf("plan: index lookup requires at least one equi-clause")
	}
	if len(residual) > 0 {
		b, err := relation.Bind(schema, residual)
		if err != nil {
			return nil, err
		}
		j.residualBound = b
	}
	return j, nil
}

// Schema implements Node.
func (j *IndexLookup) Schema() *relation.Schema { return j.schema }

// Rows implements Node.
func (j *IndexLookup) Rows(ctx context.Context) ([]relation.Tuple, error) {
	lrows, err := j.left.Rows(ctx)
	if err != nil {
		return nil, err
	}
	idx := j.scan.rel.KeyIndex(j.scanIdx)
	var out []relation.Tuple
	emitted := 0
	for i, lt := range lrows {
		if err := checkEvery(ctx, i); err != nil {
			return nil, err
		}
		for _, ri := range idx.Get(relation.TupleKey(lt, j.leftIdx)) {
			if err := checkEvery(ctx, emitted); err != nil {
				return nil, err
			}
			emitted++
			t := concat(lt, j.scan.rel.Row(int(ri)))
			if j.residualBound != nil {
				ok, err := j.residualBound(t)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			out = append(out, t)
		}
	}
	return out, nil
}

// EstRows implements Node.
func (j *IndexLookup) EstRows() int { return j.est }

// Children implements Node.
func (j *IndexLookup) Children() []Node { return []Node{j.left, j.scan} }

// Label implements Node.
func (j *IndexLookup) Label() string {
	return fmt.Sprintf("IndexLookup %s [est=%d]", j.scan.base, j.est)
}
