package relation

import (
	"slices"
	"sync"
)

// This file is the relation's auxiliary access path: a memoized lookup
// index over an arbitrary column set, grouping row positions by the hash of
// their key cells. Delta maintenance probes it to join a small delta
// against a large base relation in O(|delta|) key lookups instead of
// streaming every base row — the "index retrieval at the source" arm of
// the paper's I/O model (Appendix A), which the maintain package's joinIO
// already charges for. The dedup index is one over every column.
//
// The index is built lazily on first use and memoized per (relation
// object, column set). It then follows the data: WithDelta hands the
// landed relation a fork of every index its predecessor had memoized,
// refiled for exactly the rows the batch removed, moved and appended, so
// an index is built once per column set and never again, whichever
// relations the update batches touch.

// KeyIndex is a read-only lookup index of one relation over one column
// set (Relation.KeyIndex), filing each row under the hash Column.Hash
// chains over its key cells from HashSeed.
type KeyIndex struct {
	cols []int
	m    *cowMap
}

// Probe appends to dst the positions, ascending, of the rows whose key
// cells hash to h — rows whose keys merely collide included, so the caller
// confirms each with KeyEqual.
func (ix *KeyIndex) Probe(dst []int32, h uint64) []int32 {
	s, ok := ix.m.get(h)
	switch {
	case !ok:
		return dst
	case s.more == nil:
		return append(dst, s.one)
	default:
		return append(dst, *s.more...)
	}
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

// rowSet is the positions filed under one hash, ascending. A single row
// is held inline, with no allocation of its own; lists are immutable once
// an index is memoized, so generations share them.
type rowSet struct {
	one  int32
	more *[]int32 // every position when there are two or more, else nil
}

// refile moves the row hashing to h from position from to position to; a
// negative from files a new row, a negative to drops one. The hash's list
// is replaced, never edited.
func (ix *KeyIndex) refile(h uint64, from, to int) {
	s, ok := ix.m.get(h)
	if !ok || s.more == nil && int(s.one) == from {
		if to >= 0 {
			ix.m.put(h, rowSet{one: int32(to)})
		} else if ok {
			ix.m.del(h)
		}
		return
	}
	l := slices.DeleteFunc(ix.Probe(nil, h), func(p int32) bool { return int(p) == from })
	if to >= 0 {
		at, _ := slices.BinarySearch(l, int32(to))
		l = slices.Insert(l, at, int32(to))
	}
	switch len(l) {
	case 0:
		ix.m.del(h)
	case 1:
		ix.m.put(h, rowSet{one: l[0]})
	default:
		ix.m.put(h, rowSet{more: &l})
	}
}

// fork returns the index of a relation about to diverge from ix's by a
// delta, sharing its bulk with the original.
func (ix *KeyIndex) fork() *KeyIndex {
	return &KeyIndex{cols: ix.cols, m: ix.m.fork()}
}

// buildIndex files every row of r by its cells at cols.
func (r *Relation) buildIndex(cols []int) *KeyIndex {
	ix := &KeyIndex{cols: cols, m: newCowMap(r.Card())}
	for i := range int32(r.Card()) {
		h := hashCells(r.Row(int(i)), cols)
		s, ok := ix.m.base[h]
		switch {
		case !ok:
			s.one = i
		case s.more == nil:
			s.more = &[]int32{s.one, i}
		default:
			*s.more = append(*s.more, i)
		}
		ix.m.base[h] = s
	}
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
