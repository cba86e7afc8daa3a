// Package warehouse assembles the EVE system of Figure 1: the View
// Knowledge Base (registered E-SQL views with materialized extents), the
// Meta Knowledge Base (via the information space), the View Synchronizer,
// the QC-Model ranker, and the View Maintainer. It is the engine behind
// the repository's public API (the root eve package).
//
// Paper mapping and reproduction structure:
//
//   - warehouse.go — Config (the QC-Model parameters, the search bound and
//     the observer, frozen at New), view registration and materialization,
//     the per-pass cardinality Snapshot that keeps concurrent rankings
//     deterministic, ApplyUpdates (data updates through the View
//     Maintainer), and ApplyChange, the one-change caller of the pass.
//   - pass.go — SyncPass, the synchronization pass of Section 3.3 and the
//     only place a capability change reaches the information space: rank
//     the affected views' rewritings, land the changes (the commit point),
//     adopt or decease, publish one Version. Twins share one search and
//     one materialization of its winner: Qualify + Evaluate run once, every
//     twin installs a renamed copy. ApplyChange passes it one change;
//     internal/evolve passes it groups of independent changes.
//   - topk.go — the rewriting search, SearchTopK: base rewritings are
//     scored eagerly, drop-variant spectra are streamed best-first and
//     branch-and-bounded against the K-th best QC score
//     (core.VariantQCBound), and only the K best candidates are retained
//     in a bounded heap. Config.TopK is the bound; zero means unbounded,
//     which returns exactly the ranking of the paper's enumerate-then-rank
//     presentation (synchronize.Synchronize + core.Rank, the search's test
//     oracle).
//   - version.go — the epoch-publication (MVCC-lite) serving layer and the
//     one view registry: every commit point builds an immutable Version
//     (live views, adopted definitions, extents, captured base relations
//     and statistics) from the previous one, carrying unchanged views by
//     pointer, and publishes it with one atomic pointer swap. Acquire is the
//     lock-free read surface; Version.Extent serves a view as the extent
//     Algorithm 1 maintains, with no evaluation. A reader never observes a
//     half-applied pass, and adoption's copy-on-write discipline means
//     later passes never mutate an acquired version.
//
// Concurrency model: the pass fans per-view work out over a bounded worker
// pool (Config.Workers) in a read-only search phase and a write-isolated
// adopt phase around the sequential landings; results always come back in
// view registration order. The configuration is immutable after New and
// read without synchronization, the view registry is the published Version
// (the writer reads it through Acquire like any reader), and concurrent
// query serving goes through that Version — the single evolution writer,
// which alone holds the views' maintainers, is the only remaining
// single-threaded discipline.
package warehouse
