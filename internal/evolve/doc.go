// Package evolve is the evolution-session engine: it drives a warehouse
// through a *stream* of capability changes (the paper's Experiment 1
// setting, where view life spans are measured under successive schema
// evolutions). The synchronization pass itself — rank, land, adopt,
// publish, and the commit-point rule — is warehouse.SyncPass; a Session only
// decides what each pass is given, and so what a stream does not pay for:
//
//   - Skip (footprint.go). Every change has a write set (the relations whose
//     schema, cardinality, placement, or constraints it touches) and the
//     session keeps an inverted index from relation names to the live views
//     referencing them. A change whose footprint misses every view is
//     handed to the pass with no affected views: no snapshot, no worker
//     pool, no per-view scan — it only lands on the information space.
//
//   - Coalesce (footprint.go). Consecutive changes whose write sets stay
//     clear of each other's read footprints go to the pass as one group:
//     one pre-group snapshot, one search fan-out, the changes landing in
//     order, one adopt phase, one published Version. The disjointness
//     condition is exactly what makes the pass's "rank everything before,
//     adopt everything after" order-insensitive, so coalescing is
//     semantically invisible (see compatible for the argument).
//
//   - Share. The pass itself runs one rewriting search per distinct view
//     signature per change, so structurally identical "twin" views share
//     one; the session only counts it (Stats).
//
// Differential tests anchor the outcome: one EvolveBatch over a stream
// leaves the same surviving views, adopted rewritings and QC scores as
// feeding it change by change through warehouse.ApplyChange.
//
// The related-work motivation is the incremental-reformulation framing of
// Chirkova & Genesereth's "Database Reformulation with Integrity
// Constraints" and the rewrite-caching discipline of "Efficient Cost-Based
// Rewrite in a Bottom-Up Optimizer" (see PAPERS.md): pay for rewriting
// search once per distinct situation, not once per event.
package evolve
