package relation

import "maps"

// cowMap is the hash-keyed map behind a relation's dedup index and its key
// indexes, forkable at the cost of the edits made since the last fold
// rather than of its size (package comment, "Shared indexes"); it files
// row positions under their 64-bit row hash. A map nobody forked is one
// flat Go map, written in place — the bulk-load path. fork shares that map
// as the base of a child whose own young generation holds what differs
// from it: puts, and tombstones for base keys. The parent belongs to a
// sealed relation and is never written again, so fork writes nothing to
// it and forking a map that readers are using is a read of it.
type cowMap struct {
	base   map[uint64]rowSet
	frozen bool // base is shared with another map: writes go to young
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
	if !m.frozen {
		m.base[k] = v
	} else if b, ok := m.base[k]; ok && b == v {
		delete(m.young, k) // back to what the base holds: an insert deleted again
	} else {
		m.edit(k, edit{v: v})
	}
}

func (m *cowMap) del(k uint64) {
	if !m.frozen {
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

// fork returns a map with m's contents that shares m's bulk; m is not
// written again.
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
	return &cowMap{base: m.base, frozen: true, young: maps.Clone(m.young)}
}
