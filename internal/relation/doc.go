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
// hash-dedup kernel: Project and a deduplicating executor root run it, so
// π builds no key string and its result is columnar-born.
//
// # Sealing
//
// A relation is a value once anything else can see it. New returns the one
// open relation: its builder fills it with Insert. Seal ends that, and
// registering it with a space, WithDelta and Rebind seal their receiver;
// every other constructor (FromRows, FromDistinctRows, FromColumns,
// WithDelta, Rebind, Project, the algebra operators and the planner's
// output) returns a sealed relation. Insert on a sealed relation returns an
// error wrapping ErrSealed and writes nothing. The flag is written only
// while the relation is open, so sealing a shared relation is a read of it
// and a sealed relation is never written again: a published one needs no
// lock, and a new data state is always a new relation (WithDelta).
//
// # Shared pages
//
// A relation's rows live in a page table of fixed-size pages (pageRows,
// 32). Each page carries the token of the one generation that may edit it
// in place. WithDelta copies the table — one pointer per page — and copies
// a page on the new generation's first write to it; the sealed parent
// never writes one again. A write therefore copies the table and the pages
// it touches, not the rows. Rebind shares the table; FromDistinctRows pages
// the caller's slice without copying it. Row(i) reads one row; Tuples is a
// flat image built at most once per generation, for oracles and small
// relations, and Columns, KeyIndex, the deferred dedup index and
// SortedOrder read the pages instead.
//
// # Row identity
//
// Two rows are the same row when their cells are pairwise KeyEqual. Distinct,
// the executor's hash join, the dedup and key indexes, Join and TupleSet all
// file rows under the 64-bit hash Column.Hash gives their cells (a KeyIndex
// by its high half) and confirm a hit with that typed equality
// (ValueKeyEqual over boxed values); no row is keyed by a string. The same hash is the result checksum's row hash:
// exec.RowChecksum sums a bijective mix of it, HashTuple on boxed rows.
// HashRows, bit for bit Column.Hash chained from HashSeed, is the only
// bulk way rows are hashed: Distinct, IndexRows, the executor's probes and
// the checksum hash a block of BlockRows rows at a time through it, a
// column at a time.
//
// # Shared indexes
//
// KeyIndex is the engine's one hash index over rows (keyindex.go): a
// relation's dedup index (over every column), its memoized key indexes
// (Relation.KeyIndex), TupleSet's index and the executor's equi-joins —
// which probe a base relation's memoized index a block at a time
// (ProbeBlock), or build a transient one with IndexRows — all file row
// positions under the high 32 bits of the row hash. Its bulk is pointer-free: a power-of-two array of chain heads
// plus one chain link and one hash tag per row, 4 bytes each (about 144
// KiB at 10k rows), which the collector never scans. An index is written
// in place while its relation is built by New+Insert; from the first
// WithDelta on, each generation shares the flat part with its parent plus a
// small young generation mapping each refiled tag to its whole position
// list. WithDelta forks every index — the young map copied, O(|delta|),
// folded into a fresh flat part when it outgrows a sixteenth of the rows —
// and refiles each for exactly the rows it removed, moved and appended.
// The parent is sealed, so a fork writes nothing its readers read, and no
// generation points at its parent: a superseded one is collectable as soon
// as no Version pins it. Rebind shares both kinds of index and keeps a
// deferred dedup index deferred. Each index counts its repeated tags
// (Dups), kept up in O(|delta|) per WithDelta: at zero its keys are
// unique, and a join probing it cannot duplicate a row.
//
// Paper mapping: Definition 1 and Figure 7 (projection onto the common
// attribute subset followed by intersection) are the operators DD_ext
// measurement needs; Rebind/Qualify/Bind and the columnar layer are
// reproduction additions that let the physical planner (internal/plan)
// avoid copying — or even constructing — tuple storage. Section 5.3's
// set-semantics extents are unaffected: both storage forms present the
// same duplicate-free relation.
package relation
