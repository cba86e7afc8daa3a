package relation

import (
	"maps"
	"sync/atomic"
)

// cowMap is the string-keyed map behind a relation's dedup index and its
// key indexes, forkable at the cost of the edits made since the last fold
// rather than of its size (package comment, "Shared indexes"). A map nobody
// forked is one flat Go map, written in place — the bulk-load path. fork
// freezes that map as the base both sides read and gives each side a
// private young generation holding what differs from the base: puts, and
// tombstones for base keys. get reads base and young only; frozen is read
// by put and del, the single writer's calls, so forking a map that readers
// are using is a read of it.
type cowMap[V comparable] struct {
	base   map[string]V
	frozen atomic.Bool
	young  map[string]edit[V]
}

// edit is one young-generation entry: a value, or the tombstone of a key
// the base still holds.
type edit[V comparable] struct {
	v    V
	dead bool
}

func newCowMap[V comparable](size int) *cowMap[V] {
	return &cowMap[V]{base: make(map[string]V, size)}
}

func (m *cowMap[V]) get(k string) (V, bool) {
	if m.young != nil {
		if e, ok := m.young[k]; ok {
			return e.v, !e.dead
		}
	}
	v, ok := m.base[k]
	return v, ok
}

func (m *cowMap[V]) put(k string, v V) {
	if !m.frozen.Load() {
		m.base[k] = v
	} else if b, ok := m.base[k]; ok && b == v {
		delete(m.young, k) // back to what the base holds: an insert deleted again
	} else {
		m.edit(k, edit[V]{v: v})
	}
}

func (m *cowMap[V]) del(k string) {
	if !m.frozen.Load() {
		delete(m.base, k)
	} else if _, inBase := m.base[k]; inBase {
		m.edit(k, edit[V]{dead: true})
	} else {
		delete(m.young, k)
	}
}

func (m *cowMap[V]) edit(k string, e edit[V]) {
	if m.young == nil {
		m.young = make(map[string]edit[V])
	}
	m.young[k] = e
}

// fork returns a map with m's contents that shares m's bulk. Edits to
// either side afterwards are invisible to the other.
func (m *cowMap[V]) fork() *cowMap[V] {
	if len(m.young) > len(m.base)/16+64 {
		base := maps.Clone(m.base)
		for k, e := range m.young {
			if e.dead {
				delete(base, k)
			} else {
				base[k] = e.v
			}
		}
		return &cowMap[V]{base: base}
	}
	m.frozen.Store(true)
	child := &cowMap[V]{base: m.base, young: maps.Clone(m.young)}
	child.frozen.Store(true)
	return child
}
