// Package analysis is the engine's invariant linter: five vet-style
// analyzers, each encoding a cross-package rule that a past PR's bug made
// explicit, run as one suite by cmd/evevet (and `make lint` / `make ci`)
// so a violation fails the build before any test runs.
//
// The framework (Analyzer, Pass, Loader, RunAnalyzers) deliberately
// mirrors golang.org/x/tools/go/analysis but is built on the standard
// library alone — go/parser + go/types over source, standard-library
// imports satisfied from the build cache's gc export data — because the
// module carries no third-party dependencies. If the upstream framework
// ever becomes available, each Analyzer's Run can migrate wholesale.
//
// Each analyzer pins the invariant behind a concrete historical bug:
//
//   - versionmut — epoch immutability. PR 5 introduced lock-free serving
//     from immutable published warehouse.Version snapshots; any write
//     reached through a published snapshot outside its constructing
//     function (warehouse publish) re-creates the torn-read class of bug
//     that MVCC publication exists to kill. What a Version builds lazily
//     (plan and route caches, the view-match index) lives behind
//     sync.Map / sync.OnceValue fields installed by publish.
//
//   - cowcheck — copy-on-write landing. PR 8's "quiesce readers" bug was
//     exactly an in-place base-relation write that a reader of an already
//     published Version could observe mid-update; inside internal/maintain
//     and internal/warehouse, relations reachable from a published space
//     must be replaced via WithDelta and ReplaceRelation, never mutated
//     with Insert/Delete or writes into Tuples(). A registered relation is
//     sealed, so such an Insert also fails at run time (ErrSealed).
//
//   - ctxflow — the commit-point cancellation rule. PR 4 threaded ctx
//     through every driver with an exact landed-prefix guarantee; a
//     context.Background()/TODO() in library code severs that chain, and
//     context.WithoutCancel is legitimate only inside the one documented
//     post-commit helper (warehouse.postCommit) where a landed change must
//     finish publishing. The commit point itself, (*space.Space).ApplyChange,
//     is reached only from the synchronization pass (warehouse.SyncPass): a
//     landing anywhere else is the second rank → land → adopt → publish loop
//     PR 19 deleted growing back. Exported functions on the hot engine paths that
//     loop over tuple/batch slices must consult their ctx so a cancel can
//     land between batches.
//
//   - errlink — the typed-error taxonomy. The PR 5 audit proved every
//     sentinel and typed error survives errors.Is/As through the public
//     surface; wrapping an error operand with fmt.Errorf's %v/%s flattens
//     it to text, and ==/!= against an Err* sentinel misses wrapped
//     errors — both silently break that proof.
//
//   - doccheck — the ISSUE 2 documentation contract (every exported
//     identifier documented, every package commented), folded in from the
//     retired cmd/doclint so the repository has one analysis entry point.
//
// Analyzer tests run through RunFixture over testdata/src fixture
// packages with analysistest-style "// want" expectations; seeded_test.go
// additionally replays known-bad code modeled on the historical bugs and
// asserts the exact diagnostic position and message.
package analysis
