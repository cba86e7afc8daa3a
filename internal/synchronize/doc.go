// Package synchronize implements view synchronization (Section 3.3): given
// a capability change at an information source, it generates the legal
// rewritings of every affected E-SQL view, using the constraints in the
// Meta Knowledge Base to find replacements and the view's evolution
// parameters to decide which components may be dropped or replaced.
//
// Paper mapping:
//
//   - strategies.go — the per-change rewriting families: dropping a
//     dispensable relation or attribute, substituting a PC-related
//     replacement relation (the SVS search), and patching a single deleted
//     attribute by joining in a donor through a join constraint. Extent
//     relationships are derived per Section 5.4.3 / Figure 8.
//   - complex.go — the CVS-style complex replacement ([NLR98] direction):
//     covering a dropped relation with a join of two partial donors.
//   - rewriting.go — the Rewriting result type (with the provenance the
//     QC-Model needs), legality checks against VE (Figure 3), and
//     Synchronize, the enumerate-everything form the experiments rank.
//   - enumerate.go — the lazy side: BaseRewritings (the eager, small base
//     set), VariantIterator (a best-first stream of footnote 2's
//     drop-variant spectrum, ordered by dropped quality weight via the
//     k-best subset-sum frontier), and the deduplicating Enumerate
//     sequence. The warehouse's cost-bounded search consumes these
//     instead of Synchronize so a 2^width spectrum is never materialized
//     unless the whole ranking is asked for.
//
// All enumeration paths are deterministic: rewriting sets are deduplicated
// and reported in view-signature order regardless of generation order.
package synchronize
