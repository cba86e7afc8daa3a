package relation

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Relation is a set of tuples over a schema. The paper's quality model works
// on set semantics ("with duplicates removed first"), so Relation maintains
// a duplicate-free invariant: Insert of an existing tuple is a no-op.
//
// Relation is not safe for concurrent mutation; the space simulator wraps
// mutating access in its own lock. Concurrent reads are safe, including
// Columns (atomic batch cache) and the first keyed read of a lazily indexed
// relation (sync.Once).
type Relation struct {
	Name   string
	schema *Schema
	tuples []Tuple
	seen   *cowMap[int] // tuple key -> index into tuples; nil ⇒ deferred
	lazy   *lazySeen    // deferred dedup index (FromDistinctRows/FromColumns)
	cols   *colCache    // memoized columnar image of tuples
	born   *lazyTuples  // columnar-born rows (FromColumns); tuples on demand
	kidx   *keyIdxCache // memoized per-column-set lookup indexes (KeyIndex)
}

// lazyTuples holds the rows of a columnar-born relation (FromColumns): the
// batch is the storage of record and the tuple image is materialized at
// most once, on first tuple-level access, race-safely. Extent readers that
// only need cardinality or columnar access never pay for boxing.
type lazyTuples struct {
	batch *ColumnBatch
	once  sync.Once
	rows  []Tuple
}

// rows returns the relation's tuples, materializing a columnar-born image
// on first use.
func (r *Relation) rows() []Tuple {
	if r.born == nil {
		return r.tuples
	}
	r.born.once.Do(func() {
		r.born.rows = r.born.batch.Tuples()
	})
	return r.born.rows
}

// force converts a columnar-born relation to tuple-backed storage, ahead
// of mutation. Mutation requires exclusive access (see type comment), so
// clearing the columnar-born marker here is safe.
func (r *Relation) force() {
	if r.born == nil {
		return
	}
	r.tuples = r.rows()
	r.born = nil
}

// lazySeen defers the string-keyed dedup index of a relation whose rows are
// known duplicate-free at construction (the columnar executor's output —
// it already deduplicated by hash). The index is only needed by keyed
// operations (Contains/Insert/Delete/…), so extent-serving reads never pay
// for building the key strings. The box is shared by renamed/rebound copies
// and built at most once, race-safely.
type lazySeen struct {
	once sync.Once
	m    *cowMap[int]
}

// index returns the tuple-key index, building a deferred one on first use.
func (r *Relation) index() *cowMap[int] {
	if r.seen != nil {
		return r.seen
	}
	r.lazy.once.Do(func() {
		rows := r.rows()
		m := newCowMap[int](len(rows))
		for i, t := range rows {
			k := t.Key()
			if _, dup := m.base[k]; !dup {
				m.base[k] = i
			}
		}
		r.lazy.m = m
	})
	return r.lazy.m
}

// New creates an empty relation with the given name and schema.
func New(name string, schema *Schema) *Relation {
	return &Relation{Name: name, schema: schema, seen: newCowMap[int](0), cols: &colCache{}, kidx: &keyIdxCache{}}
}

// FromDistinctRows creates a relation directly over a duplicate-free tuple
// slice, taking ownership of it. Unlike FromRows it copies nothing and
// defers building the dedup index until a keyed operation first needs it —
// the constructor the columnar executor materializes extents through, where
// duplicates were already eliminated by hash. Rows must match the schema
// arity and be free of key duplicates; both hold by construction there.
func FromDistinctRows(name string, schema *Schema, rows []Tuple) *Relation {
	return &Relation{Name: name, schema: schema, tuples: rows, lazy: &lazySeen{}, cols: &colCache{}, kidx: &keyIdxCache{}}
}

// FromColumns creates a relation whose rows live in columnar form — the
// extent constructor of the vectorized executor. The batch is the storage
// of record (Columns returns it directly) and must hold duplicate-free
// rows matching the schema arity; the tuple image and the dedup index are
// each materialized at most once, on first demand. Callers must not mutate
// the batch afterwards.
func FromColumns(name string, schema *Schema, batch *ColumnBatch) *Relation {
	r := &Relation{Name: name, schema: schema, lazy: &lazySeen{}, cols: &colCache{}, born: &lazyTuples{batch: batch}, kidx: &keyIdxCache{}}
	r.cols.batch.Store(batch)
	return r
}

// FromRows creates a relation and inserts every row. Rows that do not match
// the schema arity produce an error.
func FromRows(name string, schema *Schema, rows ...Tuple) (*Relation, error) {
	r := New(name, schema)
	for _, row := range rows {
		if err := r.Insert(row); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// MustFromRows is FromRows that panics on error; for tests and fixtures.
func MustFromRows(name string, schema *Schema, rows ...Tuple) *Relation {
	r, err := FromRows(name, schema, rows...)
	if err != nil {
		panic(err)
	}
	return r
}

// IntRows converts [][]int64 into tuples, a convenience for the paper's
// all-integer running examples (Figure 5 etc.).
func IntRows(rows ...[]int64) []Tuple {
	out := make([]Tuple, len(rows))
	for i, r := range rows {
		t := make(Tuple, len(r))
		for j, v := range r {
			t[j] = Int(v)
		}
		out[i] = t
	}
	return out
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Card returns the cardinality |R| (number of distinct tuples).
func (r *Relation) Card() int {
	if r.born != nil {
		return r.born.batch.Rows()
	}
	return len(r.tuples)
}

// Tuples returns the underlying tuple slice; callers must not mutate it.
func (r *Relation) Tuples() []Tuple { return r.rows() }

// Contains reports whether the relation holds the given tuple.
func (r *Relation) Contains(t Tuple) bool {
	_, ok := r.index().get(t.Key())
	return ok
}

// Insert adds a tuple; duplicates are silently ignored (set semantics).
func (r *Relation) Insert(t Tuple) error {
	if len(t) != r.schema.Len() {
		return fmt.Errorf("relation %s: tuple arity %d != schema arity %d", r.Name, len(t), r.schema.Len())
	}
	r.force()
	seen := r.index()
	k := t.Key()
	if _, dup := seen.get(k); dup {
		return nil
	}
	seen.put(k, len(r.tuples))
	r.tuples = append(r.tuples, t)
	r.cols.batch.Store(nil)
	r.kidx.invalidate()
	return nil
}

// Delete removes a tuple if present and reports whether it was present.
func (r *Relation) Delete(t Tuple) bool {
	r.force()
	seen := r.index()
	k := t.Key()
	i, ok := seen.get(k)
	if !ok {
		return false
	}
	last := len(r.tuples) - 1
	if i != last {
		moved := r.tuples[last]
		r.tuples[i] = moved
		seen.put(moved.Key(), i)
	}
	r.tuples = r.tuples[:last]
	seen.del(k)
	r.cols.batch.Store(nil)
	r.kidx.invalidate()
	return true
}

// WithDelta returns a new relation holding this relation's tuples with the
// given inserts added and deletes removed, without mutating the receiver —
// the copy-on-write constructor batched data updates fold base changes
// through. Set semantics carry over: inserting a present tuple and deleting
// an absent one are no-ops. The row slice is freshly allocated; the dedup
// index and every key index the receiver has memoized are forked (cowMap),
// so the result shares their bulk with the receiver and the receiver stays
// safe to serve concurrently. Cost is one row-slice copy plus O(|delta|)
// keyed edits per index — no key string is rebuilt and no index entry
// copied for a carried-over row, which is what keeps a small update batch
// against a large relation cheap.
func (r *Relation) WithDelta(inserts, deletes []Tuple) (*Relation, error) {
	for _, t := range inserts {
		if len(t) != r.schema.Len() {
			return nil, fmt.Errorf("relation %s: delta tuple arity %d != schema arity %d", r.Name, len(t), r.schema.Len())
		}
	}
	old := r.rows()
	rows := make([]Tuple, len(old), len(old)+len(inserts))
	copy(rows, old)
	seen := r.index().fork()
	kidx := r.kidx.fork()
	for _, t := range deletes {
		k := t.Key()
		i, ok := seen.get(k)
		if !ok {
			continue
		}
		last := len(rows) - 1
		gone, moved := rows[i], rows[last]
		seen.del(k)
		for _, ix := range kidx.all {
			ix.refile(gone, i, -1)
		}
		if i != last {
			rows[i] = moved
			seen.put(moved.Key(), i)
			for _, ix := range kidx.all {
				ix.refile(moved, last, i)
			}
		}
		rows = rows[:last]
	}
	for _, t := range inserts {
		k := t.Key()
		if _, dup := seen.get(k); dup {
			continue
		}
		for _, ix := range kidx.all {
			ix.refile(t, -1, len(rows))
		}
		seen.put(k, len(rows))
		rows = append(rows, t)
	}
	return &Relation{Name: r.Name, schema: r.schema, tuples: rows, seen: seen, cols: &colCache{}, kidx: kidx}, nil
}

// Clone returns a deep copy of the relation (tuples are value slices and
// copied individually).
func (r *Relation) Clone() *Relation {
	out := New(r.Name, r.schema)
	for _, t := range r.rows() {
		out.Insert(t.Clone()) //nolint:errcheck // same schema, cannot fail
	}
	return out
}

// Rebind returns a read-only view of the relation under a different name
// and schema, sharing the tuple storage and the dedup index. The new schema
// must have the same arity; only column names change, so the duplicate-free
// invariant (keyed on values alone) carries over. Neither relation may be
// mutated afterwards — the planner uses this for zero-copy column
// re-binding of base scans.
func (r *Relation) Rebind(name string, schema *Schema) (*Relation, error) {
	if schema.Len() != r.schema.Len() {
		return nil, fmt.Errorf("relation %s: rebind schema arity %d != %d", r.Name, schema.Len(), r.schema.Len())
	}
	return &Relation{Name: name, schema: schema, tuples: r.tuples, seen: r.seen, lazy: r.lazy, cols: r.cols, born: r.born, kidx: r.kidx}, nil
}

// WithName returns a shallow renamed view of the relation sharing tuples.
func (r *Relation) WithName(name string) *Relation {
	cp := *r
	cp.Name = name
	return &cp
}

// TupleSize returns the byte width of one tuple of this relation (schema
// widths, not per-tuple actuals), the cost model's s_R.
func (r *Relation) TupleSize() int { return r.schema.TupleSize() }

// Relabel returns the relation under a same-arity schema, the landing of a
// column rename. Keys are values alone, so it keeps the rows in order (the
// tuples, or a columnar-born batch) and forks the dedup index and every key
// index; it builds no key and copies no tuple. Unlike Rebind the result may
// be edited in place: its row slice and index generations are its own.
func (r *Relation) Relabel(schema *Schema) (*Relation, error) {
	if schema.Len() != r.schema.Len() {
		return nil, fmt.Errorf("relation %s: relabel schema arity %d != %d", r.Name, schema.Len(), r.schema.Len())
	}
	out := &Relation{Name: r.Name, schema: schema, cols: &colCache{}, kidx: r.kidx.fork()}
	if r.born != nil {
		out.born = &lazyTuples{batch: r.born.batch}
	} else {
		out.tuples = slices.Clone(r.tuples)
	}
	out.cols.batch.Store(r.CachedColumns())
	if r.seen != nil {
		out.seen = r.seen.fork()
	} else {
		out.lazy = &lazySeen{}
	}
	return out, nil
}

// Project returns π_names(R) with duplicates removed, in first-occurrence
// order, named after the source: a columnar-born relation over the Distinct
// rows' gathered vectors, or the source's own when no row was a duplicate.
func (r *Relation) Project(names ...string) (*Relation, error) {
	ps, err := r.schema.Project(names...)
	if err != nil {
		return nil, fmt.Errorf("project %s: %w", r.Name, err)
	}
	b := r.Columns()
	cols := make([]*Column, len(names))
	for i, n := range names {
		cols[i] = b.Col(r.schema.IndexOf(n))
	}
	keep, _ := Distinct(cols, nil, b.n, 0, nil) // cannot fail: nothing to poll
	out := make([]Column, len(cols))
	for i, c := range cols {
		if len(keep) == b.n {
			out[i] = *c
		} else {
			out[i] = c.Gather(keep)
		}
	}
	return FromColumns(r.Name, ps, BatchFromColumns(len(keep), out)), nil
}

// Select returns σ_cond(R).
func (r *Relation) Select(cond Condition) (*Relation, error) {
	out := New(r.Name, r.schema)
	for _, t := range r.rows() {
		ok, err := cond.Eval(r.schema, t)
		if err != nil {
			return nil, fmt.Errorf("select %s: %w", r.Name, err)
		}
		if ok {
			out.Insert(t) //nolint:errcheck
		}
	}
	return out, nil
}

// Union returns R ∪ S; schemas must have equal attribute name sets, and the
// result uses r's attribute order.
func (r *Relation) Union(s *Relation) (*Relation, error) {
	if !r.schema.EqualNames(s.schema) {
		return nil, fmt.Errorf("union: schemas differ: %s vs %s", r.schema, s.schema)
	}
	out := r.Clone()
	names := r.schema.Names()
	proj, err := s.Project(names...)
	if err != nil {
		return nil, err
	}
	for _, t := range proj.Tuples() {
		out.Insert(t) //nolint:errcheck
	}
	return out, nil
}

// Intersect returns R ∩ S over identical attribute name sets.
func (r *Relation) Intersect(s *Relation) (*Relation, error) {
	if !r.schema.EqualNames(s.schema) {
		return nil, fmt.Errorf("intersect: schemas differ: %s vs %s", r.schema, s.schema)
	}
	names := r.schema.Names()
	proj, err := s.Project(names...)
	if err != nil {
		return nil, err
	}
	out := New(r.Name, r.schema)
	for _, t := range r.rows() {
		if proj.Contains(t) {
			out.Insert(t) //nolint:errcheck
		}
	}
	return out, nil
}

// Difference returns R − S over identical attribute name sets.
func (r *Relation) Difference(s *Relation) (*Relation, error) {
	if !r.schema.EqualNames(s.schema) {
		return nil, fmt.Errorf("difference: schemas differ: %s vs %s", r.schema, s.schema)
	}
	names := r.schema.Names()
	proj, err := s.Project(names...)
	if err != nil {
		return nil, err
	}
	out := New(r.Name, r.schema)
	for _, t := range r.rows() {
		if !proj.Contains(t) {
			out.Insert(t) //nolint:errcheck
		}
	}
	return out, nil
}

// Equal reports whether two relations hold the same tuple set over the same
// attribute name set.
func (r *Relation) Equal(s *Relation) bool {
	if r.Card() != s.Card() || !r.schema.EqualNames(s.schema) {
		return false
	}
	proj, err := s.Project(r.schema.Names()...)
	if err != nil {
		return false
	}
	for _, t := range r.rows() {
		if !proj.Contains(t) {
			return false
		}
	}
	return true
}

// Sorted returns the tuples ordered lexicographically, for deterministic
// printing and golden tests.
func (r *Relation) Sorted() []Tuple {
	rows := r.rows()
	out := make([]Tuple, len(rows))
	for i, p := range r.SortedOrder() {
		out[i] = rows[p]
	}
	return out
}

// SortedOrder returns the row indices of the relation in Sorted order — the
// permutation a writer walks to emit rows deterministically. Cells compare
// with Value.Compare's order, on the typed vectors when the relation has a
// columnar form (CachedColumns) and on the tuples otherwise, so a
// columnar-born result is sorted without materializing tuples.
func (r *Relation) SortedOrder() Sel {
	order := make(Sel, r.Card())
	for i := range order {
		order[i] = int32(i)
	}
	batch, rows, width := r.CachedColumns(), r.tuples, r.schema.Len()
	sort.Slice(order, func(i, j int) bool {
		a, b := int(order[i]), int(order[j])
		for c := 0; c < width; c++ {
			var d int
			if batch != nil {
				d = batch.cols[c].Compare(a, b)
			} else {
				d = rows[a][c].Compare(rows[b][c])
			}
			if d != 0 {
				return d < 0
			}
		}
		return false
	})
	return order
}

// String renders the relation as a small fixed-width table.
func (r *Relation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s%s [%d tuples]\n", r.Name, r.schema, r.Card())
	for _, t := range r.Sorted() {
		cells := make([]string, len(t))
		for i, v := range t {
			cells[i] = v.Text()
		}
		b.WriteString("  " + strings.Join(cells, "\t") + "\n")
	}
	return b.String()
}
