// Package relation implements the typed in-memory relational substrate the
// EVE reproduction is built on: attribute types and values, schemas,
// tuples, duplicate-free relations, and the algebra operators (select,
// project, natural/theta join, and the "common subset of attributes" set
// operators from Section 5.3 of the paper).
//
// The package is deliberately self-contained: it has no dependency on the
// E-SQL layer or the meta-knowledge base, so it can be reused as a small
// general-purpose relational engine.
//
// # Columnar layout
//
// Alongside the paged row-major Tuple storage, relations expose a columnar
// image for the vectorized executor in internal/plan: ColumnBatch holds one
// typed compact vector per attribute (pointer-free []int64/[]float64 for
// the numeric types), built on demand by Relation.Columns and memoized
// until the next mutation invalidates it. Sel is the selection-vector
// currency of the batch kernels; Column.Hash/KeyEqual are the engine's one
// row identity (below) for vectorized join and dedup, while
// Gather/BatchFromColumns assemble result batches without boxing values.
// FromColumns completes the loop: a columnar-born relation whose batch is
// the storage of record and whose tuple image and dedup index materialize
// lazily, each at most once, on first row-level access. Distinct is the one
// hash-dedup kernel: the executor's dedup root and Project both run it, so
// π builds no key string and its result is columnar-born.
//
// # Shared pages
//
// A relation's rows live in a page table of fixed-size pages (pageRows,
// 32). Each page carries the token of the one generation that may edit it
// in place. WithDelta and Relabel fork the table — one pointer per page —
// and both sides lose in-place rights to every page in it, so a page is
// copied on its first write after a fork, on whichever side writes it, and
// a page another generation can see is never edited. A write therefore
// copies the table and the pages it touches, not the rows. Rebind and
// WithName share the table read-only; FromDistinctRows pages the caller's
// slice without copying it. Row(i) reads one row; Tuples is a flat image
// built at most once per generation, for oracles and small relations, and
// Columns, KeyIndex, the deferred dedup index and SortedOrder read the
// pages instead.
//
// # Row identity
//
// Two rows are the same row when their cells are pairwise KeyEqual. Distinct,
// the executor's hash join, the dedup and key indexes, Join and TupleSet all
// file rows under the 64-bit hash Column.Hash gives their cells and confirm
// a hit with that typed equality; no row is keyed by a string, and
// Value.Key is only the checksum's byte encoding.
//
// # Shared indexes
//
// A relation's dedup index (a KeyIndex over every column) and its memoized
// key indexes (Relation.KeyIndex) are cowMaps from row hash to positions:
// one flat Go map while the relation is built by New+Insert, and from the
// first WithDelta on a frozen base that every later generation reads plus
// a small young generation of puts and tombstones per relation. WithDelta
// forks them — O(|delta|) entries copied, folded into a fresh base when
// the young generation outgrows a sixteenth of it — and refiles each for
// exactly the rows it removed, moved and appended; an in-place
// Insert/Delete refiles them the same way.
// Three rules keep a published relation safe to read while its successor
// is built: a frozen base is never written; a fork writes nothing a reader
// of its parent reads, and an in-place Insert/Delete after a fork goes to
// the relation's own young generation; no generation points at its parent,
// so a superseded one is collectable as soon as no Version pins it.
// Relabel (a rename-attribute landing) follows the same rules: it forks
// both kinds of index and the page table instead of rebuilding them, and
// keeps a deferred dedup index deferred, so in-place edits on either side
// stay on that side.
//
// Paper mapping: Definition 1 and Figure 7 (projection onto the common
// attribute subset followed by intersection) are the operators DD_ext
// measurement needs; Rebind/Qualify/Bind and the columnar layer are
// reproduction additions that let the physical planner (internal/plan)
// avoid copying — or even constructing — tuple storage. Section 5.3's
// set-semantics extents are unaffected: both storage forms present the
// same duplicate-free relation.
package relation
