// Package esql implements Evolvable SQL (E-SQL), the paper's extension of
// SQL SELECT-FROM-WHERE with evolution preferences (Section 4, Figure 2):
// per-attribute dispensable/replaceable flags (AD, AR), per-condition flags
// (CD, CR), per-relation flags (RD, RR), and the view-extent parameter VE
// (Figure 3).
//
// Paper mapping:
//
//   - ast.go — the AST (ViewDef, SelectItem, FromItem, CondItem, Clause)
//     with the evolution parameters of Figure 3, the preserved-attribute
//     categories of Figure 6 (SelectItem.Category), structural validation,
//     and the canonical Signature used to deduplicate rewritings.
//   - lexer.go, parser.go — a hand-written lexer and recursive-descent
//     parser for the surface syntax of Figure 2.
//   - printer.go — a printer that round-trips through the parser, used by
//     the view synchronizer's logs and the demo CLIs.
//
// The package is purely syntactic: semantics (qualification against a
// space, evaluation, rewriting legality) live in internal/exec and
// internal/synchronize.
package esql
