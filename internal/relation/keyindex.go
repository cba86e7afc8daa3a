package relation

import (
	"maps"
	"slices"
	"sync"
)

// This file is the engine's one hash index over rows: a KeyIndex groups row
// positions by the hash of their cells at a column set. A relation memoizes
// one over every column (its dedup index) and one per column set asked of
// it (Relation.KeyIndex); TupleSet keys its entries through one; the
// executor's equi-join probes a base relation's memoized index, or builds a
// transient one over its smaller input (IndexRows). Delta maintenance
// probes the same indexes to join a small delta against a large base
// relation in O(|delta|) key lookups instead of streaming every base row —
// the "index retrieval at the source" arm of the paper's I/O model
// (Appendix A), which the maintain package's joinIO already charges for.
//
// The memoized indexes are built lazily and then follow the data: WithDelta
// hands the landed relation a fork of every index its predecessor had
// memoized, refiled for exactly the rows the batch removed, moved and
// appended, so an index is built once per column set and never again,
// whichever relations the update batches touch.

// KeyIndex is a read-only lookup index of one relation over one column set
// (Relation.KeyIndex), filing each row under the hash Column.Hash chains
// over its key cells from HashSeed.
//
// Its bulk is flat and pointer-free: a power-of-two array of chain heads and
// one entry per row position, holding the high 32 bits of its row's hash
// (its tag, which also picks its chain) and the next position of its chain,
// side by side so that a chain step reads one cache line. Chains list
// positions ascending. An index nobody forked is written in place — the
// bulk-load path. fork shares the flat part with a child whose young
// generation maps each tag it has refiled to that tag's whole position
// list; the flat part is then never written again, so forking an index
// readers are using is a read of it.
type KeyIndex struct {
	cols   []int
	heads  []int32            // per chain: its first position + 1, 0 when empty
	rows   []entry            // per position
	dups   int                // positions under an earlier one's tag: link counts, refile moves, fork copies
	frozen bool               // the flat part is shared with another index: writes go to young
	young  map[uint32][]int32 // per refiled tag: its positions, ascending (none: a tombstone)
}

// entry is one row position of a KeyIndex.
type entry struct {
	tag  uint32 // the high half of the row's hash
	next int32  // the next position of its chain + 1, 0 at the end
}

// tagOf is the part of a row hash an index files by.
func tagOf(h uint64) uint32 { return uint32(h >> 32) }

// Probe appends to dst the positions, ascending, of the rows whose key
// cells hash like h — rows whose keys merely collide included, so the caller
// confirms each with KeyEqual.
func (ix *KeyIndex) Probe(dst []int32, h uint64) []int32 {
	t := tagOf(h)
	if ix.young != nil {
		if l, ok := ix.young[t]; ok {
			return append(dst, l...)
		}
	}
	return ix.flatProbe(dst, t)
}

// ProbeBlock is Probe over a block of at most BlockRows hashes, hs[k] that
// of probe row lo+k: it appends each row's positions to bi and the row to
// pi, rows ascending. It loads the block's chain heads, then their first
// and second entries, so that independent loads overlap, and files those
// without a branch on the data, writing two slots past the pairs so far.
// bi and pi are of equal length. An index with a young generation takes
// Probe row by row.
func (ix *KeyIndex) ProbeBlock(bi, pi []int32, hs []uint64, lo int) ([]int32, []int32) {
	if len(ix.young) != 0 || len(ix.rows) == 0 {
		for k, h := range hs {
			for bi = ix.Probe(bi, h); len(pi) < len(bi); {
				pi = append(pi, int32(lo+k))
			}
		}
		return bi, pi
	}
	var links [3][BlockRows]uint32 // a chain's first three (0: its end)
	var tags [2][BlockRows]uint32
	rows, mask := ix.rows, uint32(len(ix.heads)-1)
	for k, h := range hs {
		links[0][k] = uint32(ix.heads[tagOf(h)&mask])
	}
	for d := range tags {
		for k, h := range hs {
			r := entryAt(rows, links[d][k], ^tagOf(h))
			tags[d][k], links[d+1][k] = r.tag, uint32(r.next)
		}
	}
	for k, h := range hs {
		t, p, n := tagOf(h), int32(lo+k), len(bi)
		bi, pi = slices.Grow(bi, 2)[:n+2], slices.Grow(pi, 2)[:n+2]
		bi[n], pi[n] = int32(links[0][k])-1, p
		if tags[0][k] == t {
			n++
		}
		bi[n], pi[n] = int32(links[1][k])-1, p
		if tags[1][k] == t {
			n++
		}
		bi, pi = bi[:n], pi[:n]
		for e := links[2][k]; e != 0; e = uint32(rows[e-1].next) {
			if rows[e-1].tag == t {
				bi, pi = append(bi, int32(e)-1), append(pi, p)
			}
		}
	}
	return bi, pi
}

// entryAt is the entry chain link e names, or at a chain's end (e = 0)
// one under the tag none; it reads an entry either way, not to branch.
func entryAt(rows []entry, e, none uint32) entry {
	i := int(e) - 1
	r := rows[i+int(uint(i)>>63)]
	if e == 0 {
		r = entry{tag: none}
	}
	return r
}

// Dups returns the number of rows filed under an earlier row's tag: a
// repeated key counts, and so may distinct keys whose tags collide, so zero
// proves the keys unique. A transient index (IndexRows) does not count: -1.
func (ix *KeyIndex) Dups() int { return ix.dups }

// flatProbe appends the flat part's positions under tag t.
func (ix *KeyIndex) flatProbe(dst []int32, t uint32) []int32 {
	if len(ix.heads) == 0 {
		return dst
	}
	for e := ix.heads[t&uint32(len(ix.heads)-1)]; e != 0; {
		r := ix.rows[e-1]
		if r.tag == t {
			dst = append(dst, e-1)
		}
		e = r.next
	}
	return dst
}

// Lookup returns the positions, ascending, of the rows whose cells at cols
// are KeyEqual to row's, through the memoized KeyIndex over cols.
func (r *Relation) Lookup(cols []int, row Tuple) []int32 {
	ix := r.KeyIndex(cols)
	return slices.DeleteFunc(ix.Probe(nil, hashCells(row, cols)), func(p int32) bool {
		return !sameCells(r.Row(int(p)), row, cols)
	})
}

// find returns the position of the row whose key cells equal t's, reading
// row p as row(p), or -1.
func (ix *KeyIndex) find(t Tuple, row func(int) Tuple) int {
	var buf [4]int32
	ps := ix.Probe(buf[:0], hashCells(t, ix.cols))
	match := func(p int32) bool { return sameCells(row(int(p)), t, ix.cols) }
	if k := slices.IndexFunc(ps, match); k >= 0 {
		return int(ps[k])
	}
	return -1
}

// hashCells hashes t's cells at cols the way Column.Hash chains a row's
// cells from HashSeed.
func hashCells(t Tuple, cols []int) uint64 {
	h := HashSeed
	for _, c := range cols {
		h = hashValue(h, t[c])
	}
	return h
}

// sameCells reports whether a and b agree at cols under KeyEqual's typed
// equality.
func sameCells(a, b Tuple, cols []int) bool {
	for _, c := range cols {
		if !ValueKeyEqual(a[c], b[c]) {
			return false
		}
	}
	return true
}

// allCols is the key of a dedup index: every one of n columns.
func allCols(n int) []int {
	cols := make([]int, n)
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// IndexRows is the transient KeyIndex of rows 0..n-1, where row p reads
// cols[c] at sels[c][p] (a nil sels[c] = row p), filed by the hash
// HashRows gives them — Distinct's calling convention. A non-nil poll
// (ctx.Err) runs as Distinct's does; its first error aborts with no index.
func IndexRows(cols []*Column, sels []Sel, n, chunk int, poll func() error) (*KeyIndex, error) {
	rows := make([]entry, n)
	var hs [BlockRows]uint64
	for lo := 0; lo < n; lo += BlockRows {
		if poll != nil && lo%chunk < BlockRows { // the first block of a chunk
			if err := poll(); err != nil {
				return nil, err
			}
		}
		blk := hs[:min(BlockRows, n-lo)]
		HashRows(cols, sels, lo, blk)
		for k, h := range blk {
			rows[lo+k].tag = tagOf(h)
		}
	}
	ix := &KeyIndex{rows: rows, dups: -1} // transient: not counted
	ix.link(false)
	return ix, nil
}

// link sizes the chain heads for the rows filed and threads every position
// into its chain, ascending; with count set it adds up the duplicates.
func (ix *KeyIndex) link(count bool) {
	size := 8
	for size < len(ix.rows) {
		size <<= 1
	}
	ix.heads = make([]int32, size)
	mask := uint32(size - 1)
	for p := len(ix.rows) - 1; p >= 0; p-- {
		t := ix.rows[p].tag
		if count && ix.shares(t, -1) {
			ix.dups++
		}
		s := t & mask
		ix.rows[p].next, ix.heads[s] = ix.heads[s], int32(p)+1
	}
}

// shares reports whether the flat part files a position other than p
// under tag t.
func (ix *KeyIndex) shares(t uint32, p int) bool {
	for e := ix.heads[t&uint32(len(ix.heads)-1)]; e != 0; e = ix.rows[e-1].next {
		if ix.rows[e-1].tag == t && int(e-1) != p {
			return true
		}
	}
	return false
}

// refile moves the row hashing to h from position from to position to; a
// negative from files a new row, a negative to drops one. Positions stay
// dense: a new row goes to the end, and a hole a drop leaves is filled by
// the move that follows it (the swap-remove of Relation.drop and
// TupleSet.Delete).
func (ix *KeyIndex) refile(h uint64, from, to int) {
	t := tagOf(h)
	if !ix.frozen {
		if from >= 0 {
			ix.unlink(from, t)
		}
		if to >= 0 {
			ix.file(to, t)
		}
		return
	}
	// A young list replaces the tag's list: it is never edited, since forks
	// share it.
	l := ix.Probe(nil, h)
	ix.dups -= max(len(l)-1, 0)
	l = slices.DeleteFunc(l, func(p int32) bool { return int(p) == from })
	if to >= 0 {
		at, _ := slices.BinarySearch(l, int32(to))
		l = slices.Insert(l, at, int32(to))
	}
	ix.dups += max(len(l)-1, 0)
	var buf [4]int32
	if slices.Equal(l, ix.flatProbe(buf[:0], t)) {
		delete(ix.young, t) // back to what the flat part holds: an insert deleted again
		return
	}
	if ix.young == nil {
		ix.young = make(map[uint32][]int32)
	}
	ix.young[t] = l
}

// unlink takes position p, filed under tag t, out of its chain; the last
// position shortens the index, any other is left a hole.
func (ix *KeyIndex) unlink(p int, t uint32) {
	if ix.shares(t, p) {
		ix.dups--
	}
	e := &ix.heads[t&uint32(len(ix.heads)-1)]
	for *e != int32(p)+1 {
		e = &ix.rows[*e-1].next
	}
	*e = ix.rows[p].next
	if p == len(ix.rows)-1 {
		ix.rows = ix.rows[:p]
	}
}

// file threads position p under tag t into its chain, ascending: p is the
// next position at the end, or a hole unlink left.
func (ix *KeyIndex) file(p int, t uint32) {
	if len(ix.heads) > 0 && ix.shares(t, p) {
		ix.dups++
	}
	if p == len(ix.rows) {
		ix.rows = append(ix.rows, entry{tag: t})
		if len(ix.rows) > len(ix.heads) {
			ix.link(false)
			return
		}
	}
	ix.rows[p].tag = t
	e := &ix.heads[t&uint32(len(ix.heads)-1)]
	for *e != 0 && *e-1 < int32(p) {
		e = &ix.rows[*e-1].next
	}
	ix.rows[p].next, *e = *e, int32(p)+1
}

// fork returns the index of a relation about to diverge from ix's by a
// delta, sharing its flat part with the original, which is not written
// again. A young generation grown past a sixteenth of the flat part is
// folded into a flat part of the fork's own instead.
func (ix *KeyIndex) fork() *KeyIndex {
	if len(ix.young) <= len(ix.rows)/16+64 {
		return &KeyIndex{cols: ix.cols, heads: ix.heads, rows: ix.rows, dups: ix.dups, frozen: true, young: maps.Clone(ix.young)}
	}
	n := len(ix.rows)
	for t, l := range ix.young {
		n += len(l) - len(ix.flatProbe(nil, t))
	}
	rows := make([]entry, n)
	for p, r := range ix.rows {
		if _, ok := ix.young[r.tag]; !ok {
			rows[p].tag = r.tag
		}
	}
	for t, l := range ix.young {
		for _, p := range l {
			rows[p].tag = t
		}
	}
	out := &KeyIndex{cols: ix.cols, rows: rows, dups: ix.dups}
	out.link(false)
	return out
}

// reset empties an index written in place, keeping its storage.
func (ix *KeyIndex) reset() {
	clear(ix.heads)
	ix.rows, ix.dups = ix.rows[:0], 0
}

// buildIndex files every row of r by its cells at cols.
func (r *Relation) buildIndex(cols []int) *KeyIndex {
	rows := make([]entry, r.Card())
	for i := range rows {
		rows[i].tag = tagOf(hashCells(r.Row(i), cols))
	}
	ix := &KeyIndex{cols: cols, rows: rows}
	ix.link(true)
	return ix
}

// keyIdxCache memoizes a relation's indexes: the dedup index over every
// column (seen) and one key index per column set. WithDelta forks them; an
// Insert into an open relation refiles them.
type keyIdxCache struct {
	mu   sync.Mutex
	once sync.Once // settles seen
	seen *KeyIndex
	all  []*KeyIndex
}

// fork returns the cache of a relation about to diverge from this one by a
// delta: every built index, sharing its bulk with the original.
func (c *keyIdxCache) fork() *keyIdxCache {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := &keyIdxCache{all: make([]*KeyIndex, len(c.all))}
	if c.seen != nil {
		out.seen = c.seen.fork()
	}
	for i, ix := range c.all {
		out.all[i] = ix.fork()
	}
	return out
}

// index returns the dedup index, building it on first use. Safe for
// concurrent use.
func (r *Relation) index() *KeyIndex {
	r.kidx.once.Do(func() {
		r.kidx.mu.Lock() // against a concurrent fork
		defer r.kidx.mu.Unlock()
		if r.kidx.seen == nil {
			r.kidx.seen = r.buildIndex(allCols(r.schema.Len()))
		}
	})
	return r.kidx.seen
}

// KeyIndex returns the positions of the relation's rows grouped by their
// cells at the given column positions. The result is memoized on the
// relation and shared; an Insert while the relation is open refiles it.
// Safe for concurrent use.
func (r *Relation) KeyIndex(cols []int) *KeyIndex {
	r.kidx.mu.Lock()
	defer r.kidx.mu.Unlock()
	for _, ix := range r.kidx.all {
		if slices.Equal(ix.cols, cols) {
			return ix
		}
	}
	ix := r.buildIndex(slices.Clone(cols))
	r.kidx.all = append(r.kidx.all, ix)
	return ix
}
