package relation

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// ErrSealed reports an Insert into a sealed relation (package comment,
// "Sealing").
var ErrSealed = errors.New("relation is sealed")

// Relation is a set of tuples over a schema. The paper's quality model works
// on set semantics ("with duplicates removed first"), so Relation maintains
// a duplicate-free invariant: Insert of an existing tuple is a no-op (doc.go,
// "Row identity").
//
// A relation is a value once shared: only one that New returned and nothing
// has sealed yet takes Inserts, and its builder owns it until then.
// Concurrent reads of a sealed relation are safe, including Columns (atomic
// batch cache) and the first keyed read of a lazily indexed relation
// (sync.Once).
type Relation struct {
	Name   string
	schema *Schema
	pages  []*rowPage   // the rows, pageRows to a page (pages.go); nil when born
	n      int          // rows in pages
	own    *pageOwner   // the token of the pages this generation may edit in place; nil until its first write
	cols   *colCache    // memoized columnar and flat images of the rows
	born   *ColumnBatch // storage of record of a columnar-born relation (FromColumns)
	kidx   *keyIdxCache // the dedup index and the memoized key indexes (keyindex.go)
	open   bool         // New's relation, not yet sealed: the one state Insert accepts
}

// New creates an empty open relation with the given name and schema, the
// one constructor whose result takes Inserts until it is sealed.
func New(name string, schema *Schema) *Relation {
	return &Relation{Name: name, schema: schema, cols: &colCache{}, kidx: &keyIdxCache{}, open: true}
}

// Seal makes the relation read-only: Insert returns ErrSealed from then on.
// A space seals every relation it registers, and WithDelta and Rebind seal
// their receiver. Seal writes only an open relation, which its builder
// alone holds, so sealing a shared relation is a read of it.
func (r *Relation) Seal() {
	if r.open {
		r.open = false
	}
}

// FromDistinctRows creates a relation directly over a duplicate-free tuple
// slice, taking ownership of it. Unlike FromRows it copies nothing: it pages
// the slice in place, serves it as the flat image, and defers building the
// dedup index until a keyed operation first needs it. Rows must match the
// schema arity and be free of duplicates.
func FromDistinctRows(name string, schema *Schema, rows []Tuple) *Relation {
	r := &Relation{Name: name, schema: schema, pages: pagesOf(rows), n: len(rows), cols: &colCache{}, kidx: &keyIdxCache{}}
	r.cols.flat.Store(&rows)
	return r
}

// FromColumns creates a relation whose rows live in columnar form — the
// extent constructor of the vectorized executor. The batch is the storage
// of record (Columns returns it directly) and must hold duplicate-free
// rows matching the schema arity; the tuple image and the dedup index are
// each materialized at most once, on first demand. Callers must not mutate
// the batch afterwards.
func FromColumns(name string, schema *Schema, batch *ColumnBatch) *Relation {
	r := &Relation{Name: name, schema: schema, cols: &colCache{}, born: batch, kidx: &keyIdxCache{}}
	r.cols.batch.Store(batch)
	return r
}

// FromRows creates a sealed relation holding every row, duplicates dropped.
// Rows that do not match the schema arity produce an error.
func FromRows(name string, schema *Schema, rows ...Tuple) (*Relation, error) {
	r := New(name, schema)
	for _, row := range rows {
		if err := r.Insert(row); err != nil {
			return nil, err
		}
	}
	r.Seal()
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
		return r.born.Rows()
	}
	return r.n
}

// Contains reports whether the relation holds the given tuple.
func (r *Relation) Contains(t Tuple) bool { return r.find(t) >= 0 }

// find returns the position of the row equal to t, or -1.
func (r *Relation) find(t Tuple) int {
	if len(t) != r.schema.Len() {
		return -1
	}
	return r.index().find(t, r.Row)
}

// Insert adds a tuple to an open relation; duplicates are silently ignored
// (set semantics). On a sealed relation it returns an error wrapping
// ErrSealed and writes nothing.
func (r *Relation) Insert(t Tuple) error {
	if !r.open {
		return fmt.Errorf("relation %s: insert: %w", r.Name, ErrSealed)
	}
	if len(t) != r.schema.Len() {
		return fmt.Errorf("relation %s: tuple arity %d != schema arity %d", r.Name, len(t), r.schema.Len())
	}
	if r.find(t) >= 0 {
		return nil
	}
	r.edited()
	r.refile(t, -1, r.n)
	r.push(t)
	return nil
}

// drop removes row i, moving the last row into its place.
func (r *Relation) drop(i int) {
	last := r.n - 1
	gone, moved := r.Row(i), r.Row(last)
	r.refile(gone, i, -1)
	if i != last {
		r.page(i / pageRows).rows[i%pageRows] = moved
		r.refile(moved, last, i)
	}
	r.pop()
}

// refile is KeyIndex.refile of row t in every index.
func (r *Relation) refile(t Tuple, from, to int) {
	seen := r.index()
	seen.refile(hashCells(t, seen.cols), from, to)
	for _, ix := range r.kidx.all {
		ix.refile(hashCells(t, ix.cols), from, to)
	}
}

// WithDelta returns a new sealed relation holding this relation's tuples
// with the given inserts added and deletes removed, and seals the receiver
// — the copy-on-write constructor batched data updates and view maintenance
// fold changes through. Set semantics carry over: inserting a present tuple
// and deleting an absent one are no-ops. The result forks the receiver's
// page table (one pointer per page) and copies only the pages the delta
// writes; the dedup index and every key index the receiver has memoized are
// forked too (cowMap) and refiled for exactly the rows the delta removed,
// moved and appended. The receiver stays safe to serve concurrently. Cost
// is one page-table copy plus O(|delta|) page copies and keyed edits — no
// row is copied and no carried-over row is hashed.
func (r *Relation) WithDelta(inserts, deletes []Tuple) (*Relation, error) {
	for _, t := range inserts {
		if len(t) != r.schema.Len() {
			return nil, fmt.Errorf("relation %s: delta tuple arity %d != schema arity %d", r.Name, len(t), r.schema.Len())
		}
	}
	r.Seal()
	out := &Relation{Name: r.Name, schema: r.schema, pages: r.forkPages(), n: r.Card(), cols: &colCache{}, kidx: r.kidx.fork()}
	for _, t := range deletes {
		if i := out.find(t); i >= 0 {
			out.drop(i)
		}
	}
	for _, t := range inserts {
		if out.find(t) < 0 {
			out.refile(t, -1, out.n)
			out.push(t)
		}
	}
	return out, nil
}

// Rebind returns the relation's rows under another name and a same-arity
// schema, sealed, and seals the receiver: both share the row store, the
// columnar and flat images and every index, and neither is written again.
// Only names change, so the duplicate-free invariant (keyed on values
// alone) carries over. It is the one re-labelling: the planner's zero-copy
// scan binding, a relation or attribute rename, a twin's extent and an
// extent-identity route all use it.
func (r *Relation) Rebind(name string, schema *Schema) (*Relation, error) {
	if schema.Len() != r.schema.Len() {
		return nil, fmt.Errorf("relation %s: rebind schema arity %d != %d", r.Name, schema.Len(), r.schema.Len())
	}
	r.Seal()
	return &Relation{Name: name, schema: schema, pages: r.pages, n: r.n, cols: r.cols, born: r.born, kidx: r.kidx}, nil
}

// TupleSize returns the byte width of one tuple of this relation (schema
// widths, not per-tuple actuals), the cost model's s_R.
func (r *Relation) TupleSize() int { return r.schema.TupleSize() }

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
	var rows []Tuple
	for _, t := range r.Tuples() {
		ok, err := cond.Eval(r.schema, t)
		if err != nil {
			return nil, fmt.Errorf("select %s: %w", r.Name, err)
		}
		if ok {
			rows = append(rows, t)
		}
	}
	return FromDistinctRows(r.Name, r.schema, rows), nil
}

// Union returns R ∪ S; schemas must have equal attribute name sets, and the
// result uses r's attribute order.
func (r *Relation) Union(s *Relation) (*Relation, error) {
	if !r.schema.EqualNames(s.schema) {
		return nil, fmt.Errorf("union: schemas differ: %s vs %s", r.schema, s.schema)
	}
	proj, err := s.Project(r.schema.Names()...)
	if err != nil {
		return nil, err
	}
	return r.WithDelta(proj.Tuples(), nil)
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
	var rows []Tuple
	for _, t := range r.Tuples() {
		if proj.Contains(t) {
			rows = append(rows, t)
		}
	}
	return FromDistinctRows(r.Name, r.schema, rows), nil
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
	var rows []Tuple
	for _, t := range r.Tuples() {
		if !proj.Contains(t) {
			rows = append(rows, t)
		}
	}
	return FromDistinctRows(r.Name, r.schema, rows), nil
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
	for _, t := range r.Tuples() {
		if !proj.Contains(t) {
			return false
		}
	}
	return true
}

// Sorted returns the tuples ordered lexicographically, for deterministic
// printing and golden tests.
func (r *Relation) Sorted() []Tuple {
	rows := r.Tuples()
	out := make([]Tuple, len(rows))
	for i, p := range r.SortedOrder() {
		out[i] = rows[p]
	}
	return out
}

// SortedOrder returns the row indices of the relation in Sorted order — the
// permutation a writer walks to emit rows deterministically. Cells compare
// with Value.Compare's order, on the typed vectors when the relation has a
// columnar form (CachedColumns) and on the rows' pages otherwise, so
// neither a columnar-born nor a paged result builds the other form.
func (r *Relation) SortedOrder() Sel {
	order := make(Sel, r.Card())
	for i := range order {
		order[i] = int32(i)
	}
	batch, width := r.CachedColumns(), r.schema.Len()
	sort.Slice(order, func(i, j int) bool {
		a, b := int(order[i]), int(order[j])
		for c := 0; c < width; c++ {
			var d int
			if batch != nil {
				d = batch.cols[c].Compare(a, b)
			} else {
				d = r.Row(a)[c].Compare(r.Row(b)[c])
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
