package exec

import (
	"strconv"

	"repro/internal/relation"
)

// FNV-1a (64-bit) parameters of the row hash.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// checksumChunk is how many rows the columnar path hashes at once: their
// running row hashes live in one stack array while each column is walked in
// turn, so the column's type switch is paid once per chunk, not per cell.
const checksumChunk = 256

// RowChecksum returns an order-insensitive multiset checksum of a query
// result: each row is hashed (FNV-1a over column name / value-key pairs in
// schema order, with unambiguous separators) and the per-row hashes combine
// by wrapping addition, so two results checksum equal exactly when they
// hold the same row multiset under the same column names — regardless of
// row order or physical representation. This is the equivalence currency of
// the router's differential protocol: every routed query result is compared
// against base-only evaluation by checksum, and the addition-combine makes
// the comparison insensitive to operator ordering differences between the
// two plans. Value keys are type-tagged (relation.Value.Key), so Int(1),
// Float(1), and String("1") never collide.
//
// The result is read in the form it already has — column-major over the
// typed vectors when it has a batch (relation.CachedColumns), row-major
// over the tuples otherwise — and neither form, nor any key string, is
// built here.
func RowChecksum(r *relation.Relation) uint64 {
	names := r.Schema().Names()
	var sum uint64
	batch := r.CachedColumns()
	if batch == nil {
		for _, t := range r.Tuples() {
			h := fnvOffset
			for i, v := range t {
				h = mixValue(mixByte(mixBytes(h, names[i]), 0x1f), v)
			}
			sum += h
		}
		return sum
	}
	var hs [checksumChunk]uint64
	for lo := 0; lo < batch.Rows(); lo += checksumChunk {
		part := hs[:min(checksumChunk, batch.Rows()-lo)]
		for k := range part {
			part[k] = fnvOffset
		}
		for c, name := range names {
			// The name first, byte by byte across the chunk: the rows' hash
			// chains are independent, so the multiplies pipeline instead of
			// waiting on one another.
			for i := 0; i < len(name); i++ {
				for k := range part {
					part[k] = mixByte(part[k], name[i])
				}
			}
			col := batch.Col(c)
			if col.Kind == relation.TypeInt {
				for k, v := range col.Ints[lo : lo+len(part)] {
					part[k] = mixInt(mixByte(part[k], 0x1f), v)
				}
				continue
			}
			for k := range part {
				part[k] = mixValue(mixByte(part[k], 0x1f), col.Value(lo+k))
			}
		}
		for _, h := range part {
			sum += h
		}
	}
	return sum
}

func mixByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

func mixBytes[S string | []byte](h uint64, s S) uint64 {
	for i := 0; i < len(s); i++ {
		h = mixByte(h, s[i])
	}
	return h
}

// mixValue is the cell kernel: the bytes of relation.Value.Key, then 0x1e,
// produced into a stack buffer or read in place, never as a string.
func mixValue(h uint64, v relation.Value) uint64 {
	switch v.Type() {
	case relation.TypeInt:
		return mixInt(h, v.AsInt())
	case relation.TypeFloat:
		var buf [32]byte
		h = mixBytes(mixByte(h, 'f'), strconv.AppendFloat(buf[:0], v.AsFloat(), 'b', -1, 64))
	case relation.TypeString:
		h = mixBytes(mixByte(h, 's'), v.AsString())
	case relation.TypeBool:
		h = mixByte(h, 'b')
		if v.AsBool() {
			h = mixByte(h, '1')
		} else {
			h = mixByte(h, '0')
		}
	default:
		h = mixByte(h, '_')
	}
	return mixByte(h, 0x1e)
}

// mixInt spells the decimal digits itself: strconv.AppendInt's staging copy
// was half the cost of an all-int result.
func mixInt(h uint64, v int64) uint64 {
	h = mixByte(h, 'i')
	u := uint64(v)
	if v < 0 {
		h = mixByte(h, '-')
		u = -u // MinInt64 wraps to its own magnitude
	}
	var buf [20]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + u%10)
		if u /= 10; u == 0 {
			break
		}
	}
	return mixByte(mixBytes(h, buf[i:]), 0x1e)
}
