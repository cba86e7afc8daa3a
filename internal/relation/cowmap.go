package relation

import (
	"maps"
	"sync/atomic"
)

// cowMap is the hash-keyed map behind a relation's dedup index and its key
// indexes, forkable at the cost of the edits made since the last fold
// rather than of its size (package comment, "Shared indexes"); it files
// row positions under their 64-bit row hash. A map nobody forked is one
// flat Go map, written in place — the bulk-load path. fork freezes that map as the base both sides read
// and gives each side a private young generation holding what differs from
// the base: puts, and tombstones for base keys. get reads base and young
// only; frozen is read by put and del, the single writer's calls, so
// forking a map that readers are using is a read of it.
type cowMap struct {
	base   map[uint64]rowSet
	frozen atomic.Bool
	young  map[uint64]edit
}

// edit is one young-generation entry: a value, or the tombstone of a key
// the base still holds.
type edit struct {
	v    rowSet
	dead bool
}

func newCowMap(size int) *cowMap {
	return &cowMap{base: make(map[uint64]rowSet, size)}
}

func (m *cowMap) get(k uint64) (rowSet, bool) {
	if m.young != nil {
		if e, ok := m.young[k]; ok {
			return e.v, !e.dead
		}
	}
	v, ok := m.base[k]
	return v, ok
}

func (m *cowMap) put(k uint64, v rowSet) {
	if !m.frozen.Load() {
		m.base[k] = v
	} else if b, ok := m.base[k]; ok && b == v {
		delete(m.young, k) // back to what the base holds: an insert deleted again
	} else {
		m.edit(k, edit{v: v})
	}
}

func (m *cowMap) del(k uint64) {
	if !m.frozen.Load() {
		delete(m.base, k)
	} else if _, inBase := m.base[k]; inBase {
		m.edit(k, edit{dead: true})
	} else {
		delete(m.young, k)
	}
}

func (m *cowMap) edit(k uint64, e edit) {
	if m.young == nil {
		m.young = make(map[uint64]edit)
	}
	m.young[k] = e
}

// fork returns a map with m's contents that shares m's bulk. Edits to
// either side afterwards are invisible to the other.
func (m *cowMap) fork() *cowMap {
	if len(m.young) > len(m.base)/16+64 {
		base := maps.Clone(m.base)
		for k, e := range m.young {
			if e.dead {
				delete(base, k)
			} else {
				base[k] = e.v
			}
		}
		return &cowMap{base: base}
	}
	m.frozen.Store(true)
	child := &cowMap{base: m.base, young: maps.Clone(m.young)}
	child.frozen.Store(true)
	return child
}
