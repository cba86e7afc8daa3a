package plan

import (
	"context"
	"fmt"

	"repro/internal/relation"
)

// This file is the bag-semantics execution surface of the plan package:
// delta maintenance (internal/maintain, Algorithm 1) pushes signed delta
// batches through the same operators that compute full extents, but
// WITHOUT the duplicate-eliminating Dedup root — incremental view
// maintenance counts derivations, so every join witness must survive. A
// BatchScan leaf injects an in-memory delta batch where a Scan would read a
// base relation, and ExecuteBag materializes any operator subtree into a
// ColumnBatch keeping duplicates.

// BatchScan is a leaf operator over an in-memory columnar batch — the delta
// relation ΔR of one maintenance hop, already qualified to the FROM binding
// it stands in for. Unlike Scan it is not backed by a base relation and its
// rows are a bag: duplicates carry derivation multiplicity and are
// preserved.
type BatchScan struct {
	schema *relation.Schema
	batch  *relation.ColumnBatch
}

// NewBatchScan builds a batch leaf over schema; the batch width must match
// the schema arity.
func NewBatchScan(schema *relation.Schema, batch *relation.ColumnBatch) (*BatchScan, error) {
	if batch.Width() != schema.Len() {
		return nil, fmt.Errorf("plan: batch width %d != schema arity %d", batch.Width(), schema.Len())
	}
	return &BatchScan{schema: schema, batch: batch}, nil
}

// Schema implements Node.
func (s *BatchScan) Schema() *relation.Schema { return s.schema }

func (s *BatchScan) exec(ctx context.Context, _ int) (*vframe, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return leafFrame(s.batch), nil
}

// EstRows implements Node.
func (s *BatchScan) EstRows() int { return s.batch.Rows() }

// Children implements Node.
func (s *BatchScan) Children() []Node { return nil }

// Label implements Node.
func (s *BatchScan) Label() string {
	return fmt.Sprintf("BatchScan Δ[%d rows]", s.batch.Rows())
}

// ExecuteBag runs an operator subtree under bag semantics and materializes
// the result as a ColumnBatch, duplicates preserved — the execution entry
// point of delta propagation, where output multiplicity is the derivation
// count. Leaf columns the frame reads in full are shared, the others
// gathered.
func ExecuteBag(ctx context.Context, root Node) (*relation.ColumnBatch, error) {
	fr, err := root.exec(ctx, vecChunk)
	if err != nil {
		return nil, err
	}
	outCols := make([]relation.Column, len(fr.leafOf))
	for c := range outCols {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		col, sel := fr.column(c)
		if sel == nil {
			outCols[c] = *col
			continue
		}
		outCols[c] = col.Gather(sel)
	}
	return relation.BatchFromColumns(fr.n, outCols), nil
}
