package analysis

import (
	"go/ast"
	"go/types"
)

// CowCheck enforces the copy-on-write landing discipline inside the
// maintenance path: within internal/maintain and internal/warehouse,
// relations that were read out of a published space (parameters, struct
// fields, accessor results) must never be mutated in place with
// Insert/Delete or by writing into their Tuples() backing slice — new
// contents are built with WithDelta and swapped in with ReplaceRelation.
// Relations that are fresh by construction (any other call result, a
// composite literal) may be filled freely.
var CowCheck = &Analyzer{
	Name: "cowcheck",
	Doc: "flags in-place relation.Relation mutation in internal/maintain and " +
		"internal/warehouse on relations reachable from a published space " +
		"(the COW landing rule behind PR 8's 'quiesce readers' bug)",
	Run: runCowCheck,
}

// cowAccessors are the method names whose results hand back a relation
// owned by a published structure rather than a fresh copy.
var cowAccessors = map[string]bool{"Relation": true, "Extent": true, "View": true}

// runCowCheck implements the cowcheck analyzer.
func runCowCheck(pass *Pass) error {
	if !PathHasSegment(pass.Path, "maintain") && !PathHasSegment(pass.Path, "warehouse") {
		return nil
	}
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue // tests build private spaces pre-publication
		}
		// published marks locals holding a possibly-published relation
		// (single forward pass; a local ever bound to a published source
		// stays suspect). Function parameters are suspect from the start —
		// callers pass in what they own.
		published := map[types.Object]bool{}
		ast.Inspect(file, func(n ast.Node) bool {
			var fields []*ast.FieldList
			switch fn := n.(type) {
			case *ast.FuncDecl:
				fields = append(fields, fn.Recv, fn.Type.Params)
			case *ast.FuncLit:
				fields = append(fields, fn.Type.Params)
			default:
				return true
			}
			for _, fl := range fields {
				if fl == nil {
					continue
				}
				for _, f := range fl.List {
					for _, name := range f.Names {
						if obj := pass.Info.ObjectOf(name); obj != nil {
							published[obj] = true
						}
					}
				}
			}
			return true
		})
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				for k, lhs := range x.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || k >= len(x.Rhs) {
						continue
					}
					if cowPublished(pass, x.Rhs[k], published) {
						if obj := pass.Info.ObjectOf(id); obj != nil {
							published[obj] = true
						}
					}
				}
				// Writes into a Tuples() backing slice: r.Tuples()[i] = t.
				for _, lhs := range x.Lhs {
					if idx, ok := lhs.(*ast.IndexExpr); ok {
						if call, ok := idx.X.(*ast.CallExpr); ok {
							if sel, ok := call.Fun.(*ast.SelectorExpr); ok &&
								sel.Sel.Name == "Tuples" && isRelation(pass.Info.TypeOf(sel.X)) {
								pass.Reportf(lhs.Pos(),
									"write into Tuples() backing slice of a relation; land changes copy-on-write (WithDelta/ReplaceRelation)")
							}
						}
					}
				}
			case *ast.CallExpr:
				sel, ok := x.Fun.(*ast.SelectorExpr)
				if !ok || (sel.Sel.Name != "Insert" && sel.Sel.Name != "Delete") {
					return true
				}
				if s, ok := pass.Info.Selections[sel]; !ok || s.Kind() != types.MethodVal {
					return true
				}
				if !isRelation(pass.Info.TypeOf(sel.X)) {
					return true
				}
				if cowPublished(pass, sel.X, published) {
					pass.Reportf(x.Pos(),
						sel.Sel.Name+" on a relation reachable from a published space; land changes copy-on-write (WithDelta/ReplaceRelation)")
				}
			}
			return true
		})
	}
	return nil
}

// isRelation reports whether t is relation.Relation (or a fixture twin in a
// "relation" path segment).
func isRelation(t types.Type) bool { return TypeIs(t, "relation", "Relation") }

// cowPublished decides whether e denotes a relation that may be reachable
// from a published space: a parameter, a struct-field read, a published
// accessor result, or a local already marked published. Everything else —
// composite literals, constructor calls, WithDelta results — is fresh by
// construction.
func cowPublished(pass *Pass, e ast.Expr, published map[types.Object]bool) bool {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return cowPublished(pass, x.X, published)
	case *ast.StarExpr:
		return cowPublished(pass, x.X, published)
	case *ast.Ident:
		return published[pass.Info.ObjectOf(x)]
	case *ast.SelectorExpr:
		if s, ok := pass.Info.Selections[x]; ok && s.Kind() == types.FieldVal {
			return true // read out of a live structure
		}
		return false
	case *ast.IndexExpr:
		return cowPublished(pass, x.X, published)
	case *ast.CallExpr:
		if sel, ok := x.Fun.(*ast.SelectorExpr); ok && cowAccessors[sel.Sel.Name] {
			return true // space.Relation(name) and friends hand back owned data
		}
		return false
	default:
		return false
	}
}
