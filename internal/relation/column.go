package relation

import (
	"cmp"
	"math"
	"sync"
	"sync/atomic"
)

// Sel is a selection vector: row indices into a ColumnBatch (or a derived
// row space), in production order. Vectorized operators communicate through
// selection vectors instead of copying payloads — a filter narrows a batch
// by emitting the surviving row indices, a join emits matched row-index
// pairs — and tuple materialization happens only once, at the plan root.
type Sel []int32

// Column is one attribute's values across a whole batch. When every value
// shares one scalar type the payloads live in a typed vector (Ints, Floats,
// Strs, or Bools, selected by Kind) so kernels can run over a plain slice
// without per-value interface or type dispatch; otherwise (mixed types or
// NULLs present) Kind is TypeInvalid and the generic Vals vector holds the
// boxed values.
type Column struct {
	// Kind is the uniform scalar type of the column, or TypeInvalid when
	// the column is mixed/NULL-bearing and Vals must be used.
	Kind Type
	// Ints holds the payloads of a TypeInt column.
	Ints []int64
	// Floats holds the payloads of a TypeFloat column.
	Floats []float64
	// Strs holds the payloads of a TypeString column.
	Strs []string
	// Bools holds the payloads of a TypeBool column.
	Bools []bool
	// Vals holds the boxed values of a mixed or NULL-bearing column.
	Vals []Value
}

// Len returns the number of rows in the column.
func (c *Column) Len() int {
	switch c.Kind {
	case TypeInt:
		return len(c.Ints)
	case TypeFloat:
		return len(c.Floats)
	case TypeString:
		return len(c.Strs)
	case TypeBool:
		return len(c.Bools)
	default:
		return len(c.Vals)
	}
}

// Value boxes row i back into a Value — the materialization accessor the
// plan root uses when building output tuples.
func (c *Column) Value(i int) Value {
	switch c.Kind {
	case TypeInt:
		return Int(c.Ints[i])
	case TypeFloat:
		return Float(c.Floats[i])
	case TypeString:
		return String(c.Strs[i])
	case TypeBool:
		return Bool(c.Bools[i])
	default:
		return c.Vals[i]
	}
}

// Constants for the vectorized hash paths (hash joins, duplicate
// elimination): FNV-1a for bytes and strings, a golden-ratio multiply for
// whole words. The hashes are an internal acceleration only — equality is
// always re-verified with KeyEqual, so collisions cost time, not answers —
// and they are never persisted, so the scheme can change freely.
const (
	hashOffset uint64 = 14695981039346656037
	hashPrime  uint64 = 1099511628211
	hashGold   uint64 = 0x9E3779B97F4A7C15
)

func mixByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * hashPrime }

// mixUint64 folds a 64-bit payload in with one multiply instead of eight
// byte rounds — the word-at-a-time fast path for int and float columns.
func mixUint64(h, v uint64) uint64 {
	v *= hashGold
	v ^= v >> 29
	return (h ^ v) * hashPrime
}

// mixString mixes the length before the bytes, so that adjacent string
// cells split differently ("|", "sa" and "|s", "a") do not hash alike.
func mixString(h uint64, s string) uint64 {
	h = mixUint64(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h = mixByte(h, s[i])
	}
	return h
}

// canonFloatBits maps a float payload to comparison bits under the strict
// typed-key semantics: every NaN collapses to one key while +0 and -0 stay
// distinct.
func canonFloatBits(f float64) uint64 {
	if math.IsNaN(f) {
		return 0x7FF8000000000000
	}
	return math.Float64bits(f)
}

// HashSeed is the initial accumulator for Hash chains.
const HashSeed = hashOffset

// Hash mixes row i into the accumulator h under the strict typed-key
// semantics (Int(1) and Float(1.0) hash differently): the engine's one row
// hash (package comment, "Row identity").
func (c *Column) Hash(i int, h uint64) uint64 {
	switch c.Kind {
	case TypeInt:
		return mixUint64(mixByte(h, 'i'), uint64(c.Ints[i]))
	case TypeFloat:
		return mixUint64(mixByte(h, 'f'), canonFloatBits(c.Floats[i]))
	case TypeString:
		return mixString(mixByte(h, 's'), c.Strs[i])
	case TypeBool:
		b := byte(0)
		if c.Bools[i] {
			b = 1
		}
		return mixByte(mixByte(h, 'b'), b)
	default:
		return hashValue(h, c.Vals[i])
	}
}

// hashValue is the generic-column arm of Column.Hash; typed columns and
// boxed values of the same scalar value hash identically.
func hashValue(h uint64, v Value) uint64 {
	switch v.typ {
	case TypeInt:
		return mixUint64(mixByte(h, 'i'), uint64(v.i))
	case TypeFloat:
		return mixUint64(mixByte(h, 'f'), canonFloatBits(v.f))
	case TypeString:
		return mixString(mixByte(h, 's'), v.s)
	case TypeBool:
		b := byte(0)
		if v.b {
			b = 1
		}
		return mixByte(mixByte(h, 'b'), b)
	default:
		return mixByte(h, '_')
	}
}

// KeyEqual reports whether row i of c and row j of d are identical under
// the strict typed-key semantics: same type and same payload, with all NaNs
// equal and +0 distinct from -0. It is the collision check paired with
// Hash.
func (c *Column) KeyEqual(i int, d *Column, j int) bool {
	if c.Kind != TypeInvalid && c.Kind == d.Kind {
		switch c.Kind {
		case TypeInt:
			return c.Ints[i] == d.Ints[j]
		case TypeFloat:
			return canonFloatBits(c.Floats[i]) == canonFloatBits(d.Floats[j])
		case TypeString:
			return c.Strs[i] == d.Strs[j]
		case TypeBool:
			return c.Bools[i] == d.Bools[j]
		}
	}
	return valueKeyEqual(c.Value(i), d.Value(j))
}

// valueKeyEqual is KeyEqual over boxed values.
func valueKeyEqual(a, b Value) bool {
	if a.typ != b.typ {
		return false
	}
	switch a.typ {
	case TypeInt:
		return a.i == b.i
	case TypeFloat:
		return canonFloatBits(a.f) == canonFloatBits(b.f)
	case TypeString:
		return a.s == b.s
	case TypeBool:
		return a.b == b.b
	default:
		return true // both NULL
	}
}

// Distinct is the hash-dedup kernel of the executor's dedup root and of
// Project: the first position, ascending, of every distinct row among rows
// 0..n-1, where row p reads cols[c] at sels[c][p] (nil = row p). Rows group
// by Hash and KeyEqual (no key string), with no per-row closure or
// interface call. A non-nil poll (ctx.Err) runs every chunk rows from the
// first; its first error aborts with no positions.
func Distinct(cols []*Column, sels []Sel, n, chunk int, poll func() error) (Sel, error) {
	keep, _, err := distinct(cols, sels, n, chunk, poll, nil)
	return keep, err
}

// CountDistinct is Distinct over rows 0..n-1 of cols that also counts each
// distinct row's copies — a bag's multiplicities: counts[k] rows equal row
// keep[k].
func CountDistinct(cols []*Column, n int) (keep Sel, counts []int32) {
	keep, counts, _ = distinct(cols, nil, n, 0, nil, make([]int32, 0, n)) // cannot fail: nothing to poll
	return keep, counts
}

// distinct is Distinct, counting copies into counts unless it is nil.
func distinct(cols []*Column, sels []Sel, n, chunk int, poll func() error, counts []int32) (Sel, []int32, error) {
	if sels == nil {
		sels = make([]Sel, len(cols))
	}
	// Open addressing at load factor ≤ ½: a slot holds the row's full hash
	// and its ordinal in keep + 1, 0 marking an empty slot.
	size := uint32(8)
	for size < uint32(n)*2 {
		size <<= 1
	}
	mask := size - 1
	hashes := make([]uint64, size)
	slots := make([]int32, size)
	keep := make(Sel, 0, n)
	left := 1
	for p := 0; p < n; p++ {
		if left--; left == 0 && poll != nil {
			if err := poll(); err != nil {
				return nil, nil, err
			}
			left = chunk
		}
		h := HashSeed
		for c, col := range cols {
			h = col.Hash(rowAt(sels[c], p), h)
		}
		dup := -1
		s := uint32(h) & mask
		for ; slots[s] != 0; s = (s + 1) & mask {
			if hashes[s] != h {
				continue
			}
			k := int(slots[s] - 1)
			e := int(keep[k])
			same := true
			for c, col := range cols {
				if !col.KeyEqual(rowAt(sels[c], p), col, rowAt(sels[c], e)) {
					same = false
					break
				}
			}
			if same {
				dup = k
				break
			}
		}
		if dup >= 0 {
			if counts != nil {
				counts[dup]++
			}
			continue
		}
		keep = append(keep, int32(p))
		hashes[s], slots[s] = h, int32(len(keep))
		if counts != nil {
			counts = append(counts, 1)
		}
	}
	return keep, counts, nil
}

// rowAt maps position p through a row vector (nil = identity).
func rowAt(sel Sel, p int) int {
	if sel == nil {
		return p
	}
	return int(sel[p])
}

// Compare orders row i against row j of the column exactly as
// Value.Compare orders their boxed values, reading the typed vector
// directly — the comparator SortedOrder sorts a row permutation with.
func (c *Column) Compare(i, j int) int {
	switch c.Kind {
	case TypeInt:
		return cmp.Compare(c.Ints[i], c.Ints[j])
	case TypeString:
		return cmp.Compare(c.Strs[i], c.Strs[j])
	default:
		// Floats keep Value.Compare's NaN-ties-with-everything rule, which
		// cmp.Compare does not share; bools and mixed columns are rare.
		return c.Value(i).Compare(c.Value(j))
	}
}

// ColumnBatch is the columnar image of a relation's tuples: one Column per
// schema position, all of equal length. It carries values only — no
// attribute names — so rebound views of a relation (Scan qualification)
// share one batch with their base. Batches are immutable once built.
type ColumnBatch struct {
	n    int
	cols []Column
}

// NewColumnBatch ingests a tuple slice into columnar form. Every tuple must
// have exactly width values (relations guarantee this by construction).
func NewColumnBatch(tuples []Tuple, width int) *ColumnBatch {
	return ingest([][]Tuple{tuples}, len(tuples), width)
}

// ingest builds the batch of n rows given as consecutive non-empty chunks —
// one flat slice, or a relation's pages.
func ingest(chunks [][]Tuple, n, width int) *ColumnBatch {
	b := &ColumnBatch{n: n, cols: make([]Column, width)}
	for j := range b.cols {
		b.cols[j] = ingestColumn(chunks, n, j)
	}
	return b
}

// ingestColumn builds column j, using a typed vector when the column is
// type-uniform and falling back to boxed values on the first mismatch.
func ingestColumn(chunks [][]Tuple, n, j int) Column {
	if n == 0 {
		return Column{Kind: TypeInvalid}
	}
	switch chunks[0][0][j].typ {
	case TypeInt:
		vs := make([]int64, 0, n)
		for _, c := range chunks {
			for _, t := range c {
				if t[j].typ != TypeInt {
					return genericColumn(chunks, n, j)
				}
				vs = append(vs, t[j].i)
			}
		}
		return Column{Kind: TypeInt, Ints: vs}
	case TypeFloat:
		vs := make([]float64, 0, n)
		for _, c := range chunks {
			for _, t := range c {
				if t[j].typ != TypeFloat {
					return genericColumn(chunks, n, j)
				}
				vs = append(vs, t[j].f)
			}
		}
		return Column{Kind: TypeFloat, Floats: vs}
	case TypeString:
		vs := make([]string, 0, n)
		for _, c := range chunks {
			for _, t := range c {
				if t[j].typ != TypeString {
					return genericColumn(chunks, n, j)
				}
				vs = append(vs, t[j].s)
			}
		}
		return Column{Kind: TypeString, Strs: vs}
	case TypeBool:
		vs := make([]bool, 0, n)
		for _, c := range chunks {
			for _, t := range c {
				if t[j].typ != TypeBool {
					return genericColumn(chunks, n, j)
				}
				vs = append(vs, t[j].b)
			}
		}
		return Column{Kind: TypeBool, Bools: vs}
	default:
		return genericColumn(chunks, n, j)
	}
}

// genericColumn boxes column j of every tuple — the mixed/NULL fallback.
func genericColumn(chunks [][]Tuple, n, j int) Column {
	vs := make([]Value, 0, n)
	for _, c := range chunks {
		for _, t := range c {
			vs = append(vs, t[j])
		}
	}
	return Column{Kind: TypeInvalid, Vals: vs}
}

// Gather returns a compact copy of the column holding rows idx[0], idx[1],
// … in order — the payload-copy step of late materialization, applied only
// to rows that survived to the plan root.
func (c *Column) Gather(idx []int32) Column {
	switch c.Kind {
	case TypeInt:
		out := make([]int64, len(idx))
		for k, i := range idx {
			out[k] = c.Ints[i]
		}
		return Column{Kind: TypeInt, Ints: out}
	case TypeFloat:
		out := make([]float64, len(idx))
		for k, i := range idx {
			out[k] = c.Floats[i]
		}
		return Column{Kind: TypeFloat, Floats: out}
	case TypeString:
		out := make([]string, len(idx))
		for k, i := range idx {
			out[k] = c.Strs[i]
		}
		return Column{Kind: TypeString, Strs: out}
	case TypeBool:
		out := make([]bool, len(idx))
		for k, i := range idx {
			out[k] = c.Bools[i]
		}
		return Column{Kind: TypeBool, Bools: out}
	default:
		out := make([]Value, len(idx))
		for k, i := range idx {
			out[k] = c.Vals[i]
		}
		return Column{Kind: TypeInvalid, Vals: out}
	}
}

// BatchFromColumns wraps pre-built columns (each of length n) into a batch,
// the constructor the columnar executor assembles gathered output through.
func BatchFromColumns(n int, cols []Column) *ColumnBatch {
	return &ColumnBatch{n: n, cols: cols}
}

// Tuples materializes every row of the batch, column-major over one shared
// backing array so the per-column type switch is hoisted out of the row
// loop and each tuple is one sub-slice, not its own allocation.
func (b *ColumnBatch) Tuples() []Tuple {
	w := len(b.cols)
	backing := make([]Value, b.n*w)
	for c := range b.cols {
		col := &b.cols[c]
		switch col.Kind {
		case TypeInt:
			for k, v := range col.Ints {
				backing[k*w+c] = Int(v)
			}
		case TypeFloat:
			for k, v := range col.Floats {
				backing[k*w+c] = Float(v)
			}
		case TypeString:
			for k, v := range col.Strs {
				backing[k*w+c] = String(v)
			}
		case TypeBool:
			for k, v := range col.Bools {
				backing[k*w+c] = Bool(v)
			}
		default:
			for k, v := range col.Vals {
				backing[k*w+c] = v
			}
		}
	}
	tuples := make([]Tuple, b.n)
	for k := range tuples {
		tuples[k] = backing[k*w : (k+1)*w : (k+1)*w]
	}
	return tuples
}

// ByteSize sums Value.ByteSize over every cell of the batch; the fixed-width
// kinds are read off the vector lengths without boxing a value.
func (b *ColumnBatch) ByteSize() int {
	n := 0
	for c := range b.cols {
		switch col := &b.cols[c]; col.Kind {
		case TypeInt, TypeFloat:
			n += 8 * col.Len()
		case TypeBool:
			n += col.Len()
		default:
			for i := range col.Len() {
				n += col.Value(i).ByteSize()
			}
		}
	}
	return n
}

// Rows returns the number of rows in the batch.
func (b *ColumnBatch) Rows() int { return b.n }

// Width returns the number of columns in the batch.
func (b *ColumnBatch) Width() int { return len(b.cols) }

// Col returns column j of the batch.
func (b *ColumnBatch) Col(j int) *Column { return &b.cols[j] }

// colCache memoizes a relation's ingested ColumnBatch and its flat tuple
// image (Tuples, built at most once under mu). The box is shared by
// every Rebind of the relation (they share the row store), so ingestion
// happens once per data state no matter how many scans, plans, or
// published warehouse versions read the relation. An Insert while the
// relation is still open drops both; a sealed relation never changes, so
// its cache is filled at most once and then serves every reader. The
// pointer is atomic so concurrent readers may race to fill a cold cache
// safely (ingestion is deterministic; either result serves).
type colCache struct {
	batch atomic.Pointer[ColumnBatch]
	mu    sync.Mutex // serializes building flat
	flat  atomic.Pointer[[]Tuple]
}

// Columns returns the relation's tuples in columnar form, ingesting on
// first use and serving the cached batch afterwards. The batch reflects the
// relation's data at call time: an Insert into an open relation
// invalidates the cache. Callers must not mutate the returned batch.
func (r *Relation) Columns() *ColumnBatch {
	if b := r.CachedColumns(); b != nil {
		return b
	}
	b := ingest(r.chunks(), r.Card(), r.schema.Len())
	r.cols.batch.Store(b)
	return b
}

// CachedColumns returns the columnar form when the relation already has
// one — it is columnar-born, or an earlier Columns call ingested its
// current tuples — and nil otherwise. Unlike Columns it never ingests, so
// result consumers (checksum, sort, encode) read a batch where one exists
// and the tuples where not, without either form being built on their
// account.
func (r *Relation) CachedColumns() *ColumnBatch {
	if r.born != nil {
		return r.born
	}
	if b := r.cols.batch.Load(); b != nil && b.n == r.n {
		return b
	}
	return nil
}
