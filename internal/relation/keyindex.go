package relation

import (
	"slices"
	"sync"
)

// This file is the relation's auxiliary access path: a memoized lookup
// index over an arbitrary column set, grouping row positions by composite
// key. Delta maintenance probes it to join a small delta against a large
// base relation in O(|delta|) key lookups instead of streaming every base
// row — the "index retrieval at the source" arm of the paper's I/O model
// (Appendix A), which the maintain package's joinIO already charges for.
//
// The index is built lazily on first use and memoized per (relation
// object, column set). It then follows the data: WithDelta hands the
// landed relation a fork of every index its predecessor had memoized,
// refiled for exactly the rows the batch removed, moved and appended, so
// an index is built once per column set and never again, whichever
// relations the update batches touch.

// KeyIndex is a read-only lookup index of one relation over one column
// set (Relation.KeyIndex).
type KeyIndex struct {
	cols []int
	m    *cowMap[rowSet]
}

// Get returns the positions, ascending, of the rows whose composite key
// over the index's columns (TupleKey encoding) is key. Callers must not
// mutate the result.
func (ix *KeyIndex) Get(key string) []int32 {
	if s, ok := ix.m.get(key); ok {
		return s.list()
	}
	return nil
}

// rowSet is the positions filed under one key, ascending. A key with one
// row — every key of a join-key column — holds its position inline, with
// no slice header and no allocation of its own; lists are immutable once
// an index is memoized, so generations share them.
type rowSet struct {
	one  int32
	more *[]int32 // every position when there are two or more, else nil
}

func (s rowSet) list() []int32 {
	if s.more != nil {
		return *s.more
	}
	return []int32{s.one}
}

// refile moves row t from position from to position to under its key; a
// negative from files a new row, a negative to drops one. The key's list is
// replaced, never edited.
func (ix *KeyIndex) refile(t Tuple, from, to int) {
	k := TupleKey(t, ix.cols)
	var l []int32
	if s, ok := ix.m.get(k); ok {
		l = slices.DeleteFunc(slices.Clone(s.list()), func(p int32) bool { return int(p) == from })
	}
	if to >= 0 {
		at, _ := slices.BinarySearch(l, int32(to))
		l = slices.Insert(l, at, int32(to))
	}
	switch len(l) {
	case 0:
		ix.m.del(k)
	case 1:
		ix.m.put(k, rowSet{one: l[0]})
	default:
		ix.m.put(k, rowSet{more: &l})
	}
}

// keyIdxCache memoizes a relation's key indexes, one per column set.
// In-place mutation (Insert/Delete) drops them; WithDelta forks them.
type keyIdxCache struct {
	mu  sync.Mutex
	all []*KeyIndex
}

// invalidate drops every memoized index after an in-place mutation.
func (c *keyIdxCache) invalidate() {
	c.mu.Lock()
	c.all = nil
	c.mu.Unlock()
}

// fork returns the cache of a relation about to diverge from this one by a
// delta: every memoized index, sharing its bulk with the original.
func (c *keyIdxCache) fork() *keyIdxCache {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := &keyIdxCache{all: make([]*KeyIndex, len(c.all))}
	for i, ix := range c.all {
		out.all[i] = &KeyIndex{cols: ix.cols, m: ix.m.fork()}
	}
	return out
}

// KeyIndex returns the positions of the relation's rows grouped by their
// composite key over the given column positions. The result is memoized on
// the relation and shared — callers must not mutate the relation while
// holding it. Safe for concurrent use.
func (r *Relation) KeyIndex(cols []int) *KeyIndex {
	r.kidx.mu.Lock()
	defer r.kidx.mu.Unlock()
	for _, ix := range r.kidx.all {
		if slices.Equal(ix.cols, cols) {
			return ix
		}
	}
	ix := &KeyIndex{cols: slices.Clone(cols), m: newCowMap[rowSet](r.Card())}
	for i := range int32(r.Card()) {
		k := TupleKey(r.Row(int(i)), cols)
		s, ok := ix.m.base[k]
		switch {
		case !ok:
			s.one = i
		case s.more == nil:
			s.more = &[]int32{s.one, i}
		default:
			*s.more = append(*s.more, i)
		}
		ix.m.base[k] = s
	}
	r.kidx.all = append(r.kidx.all, ix)
	return ix
}
