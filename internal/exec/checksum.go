package exec

import "repro/internal/relation"

// RowChecksum returns an order-insensitive multiset checksum of a query
// result: the wrapping sum, over its rows, of rowTerm(names, h), where h is
// the row's dedup-index hash (Column.Hash chained from relation.HashSeed
// over every cell, the engine's one row hash, which relation.HashRows
// computes a block of rows at a time) and names is one hash of the
// column names. Two results checksum equal exactly when they hold the same
// row multiset under the same column names (up to 64-bit collisions),
// whatever their row order or physical form. Every routed query result is
// held to base-only evaluation by this checksum. Cells hash with their type
// tag, so Int(1), Float(1) and String("1") are different rows. The result is
// read in the form it has — its batch (CachedColumns) or else its tuples.
func RowChecksum(r *relation.Relation) uint64 {
	names := r.Schema().Names()
	nameCol := relation.Column{Kind: relation.TypeString, Strs: names}
	nh := relation.HashSeed
	for i := range names {
		nh = nameCol.Hash(i, nh)
	}
	var sum uint64
	batch := r.CachedColumns()
	if batch == nil {
		for _, t := range r.Tuples() {
			sum += rowTerm(nh, relation.HashTuple(t))
		}
		return sum
	}
	var cbuf [16]*relation.Column
	cols := cbuf[:0]
	for c := range names {
		cols = append(cols, batch.Col(c))
	}
	var hs [relation.BlockRows]uint64
	for lo := 0; lo < batch.Rows(); lo += len(hs) {
		blk := hs[:min(len(hs), batch.Rows()-lo)]
		relation.HashRows(cols, nil, lo, blk)
		for _, h := range blk {
			sum += rowTerm(nh, h)
		}
	}
	return sum
}

// rowTerm is one row's share: h xor the names hash, then the murmur3
// finalizer — a bijection in h, so a sum can be kept up from index hashes.
func rowTerm(nh, h uint64) uint64 {
	h ^= nh
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}
