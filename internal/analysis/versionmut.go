package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// VersionMut enforces the epoch-immutability invariant: once a
// warehouse.Version is built and published, nothing may write through it —
// readers serve lock-free from the snapshot on the promise that it never
// changes. The analyzer flags field writes, map writes, appends-into-fields,
// map deletes/clears, and Insert/Delete calls whose receiver is reached
// through a Version or VersionView (including one assignment hop through a
// local), anywhere except the type's own constructing function. State a
// Version builds after publication (the plan and route caches, the match
// index) sits behind sync.Map and sync.OnceValue fields that publish
// installs, so building it is never a field write.
var VersionMut = &Analyzer{
	Name: "versionmut",
	Doc: "flags mutation of published Version snapshots " +
		"outside their constructor (the epoch-immutability invariant of PR 5; " +
		"the PR 8 'quiesce readers' bug was an in-place write a reader could observe)",
	Run: runVersionMut,
}

// versionTargets lists the published-snapshot types, each with the
// constructing function allowed to write through it. The package is matched
// by path segment so fixture twins participate.
var versionTargets = []struct {
	pkgSeg, typeName, ctor string
}{
	{"warehouse", "Version", "publish"},
	{"warehouse", "VersionView", "publish"},
}

// versionTarget returns the matched target's index for t, or -1.
func versionTarget(t types.Type) int {
	for i, tgt := range versionTargets {
		if TypeIs(t, tgt.pkgSeg, tgt.typeName) {
			return i
		}
	}
	return -1
}

// versionTargetName renders the target for diagnostics ("warehouse.Version").
func versionTargetName(i int) string {
	return versionTargets[i].pkgSeg + "." + versionTargets[i].typeName
}

// versionPathTarget walks the access path of e — selector bases, index
// bases, derefs — and returns the first published-snapshot type on it, or
// -1. Index operands and call arguments are deliberately not part of the
// path: `m[v.Epoch()]` reads the version, it does not write through it.
func versionPathTarget(info *types.Info, e ast.Expr) int {
	for {
		if t := info.TypeOf(e); t != nil {
			if i := versionTarget(t); i >= 0 {
				return i
			}
		}
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return -1
		}
	}
}

// versionWriteTarget classifies an assignment's LHS: it returns a target
// only when the write goes *through* a published snapshot — the snapshot
// type appears strictly below the assigned expression (field, element, or
// deref base). Assigning a snapshot pointer *into* an ordinary container
// (`vers[i] = w.Acquire()`) replaces a reference and is fine.
func versionWriteTarget(info *types.Info, e ast.Expr) int {
	switch x := e.(type) {
	case *ast.SelectorExpr:
		return versionPathTarget(info, x.X)
	case *ast.IndexExpr:
		return versionPathTarget(info, x.X)
	case *ast.SliceExpr:
		return versionPathTarget(info, x.X)
	case *ast.StarExpr:
		return versionPathTarget(info, x.X)
	case *ast.ParenExpr:
		return versionWriteTarget(info, x.X)
	default:
		return -1
	}
}

// versionAllowed reports whether writes to target i are permitted at the
// current site: only the constructing function, and only in the package
// that declares the type (closures inside the constructor inherit).
func versionAllowed(pass *Pass, i int, fn string) bool {
	tgt := versionTargets[i]
	return fn == tgt.ctor && PathHasSegment(pass.Path, tgt.pkgSeg)
}

// runVersionMut implements the versionmut analyzer.
func runVersionMut(pass *Pass) error {
	for _, file := range pass.Files {
		// tainted maps locals assigned from a snapshot-reaching expression
		// (one hop: `r := view.Extent; r.Insert(...)` is still a mutation
		// of the published view).
		tainted := map[types.Object]int{}
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					if i := versionWriteTarget(pass.Info, lhs); i >= 0 {
						reportVersionMut(pass, lhs.Pos(), i, "write through")
					}
				}
				// Record taint: locals bound to expressions whose access
				// path includes a snapshot.
				for k, lhs := range x.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || k >= len(x.Rhs) {
						continue
					}
					if i := versionPathTarget(pass.Info, x.Rhs[k]); i >= 0 {
						if obj := pass.Info.ObjectOf(id); obj != nil {
							tainted[obj] = i
						}
					}
				}
			case *ast.IncDecStmt:
				if i := versionWriteTarget(pass.Info, x.X); i >= 0 {
					reportVersionMut(pass, x.Pos(), i, "write through")
				}
			case *ast.CallExpr:
				// delete(v.m, k) / clear(v.m).
				if id, ok := x.Fun.(*ast.Ident); ok && (id.Name == "delete" || id.Name == "clear") && len(x.Args) > 0 {
					if _, isBuiltin := pass.Info.ObjectOf(id).(*types.Builtin); isBuiltin {
						if i := versionPathTarget(pass.Info, x.Args[0]); i >= 0 {
							reportVersionMut(pass, x.Pos(), i, id.Name+" on map of")
						}
					}
				}
				// Mutating method call (Insert/Delete) on a receiver reached
				// through a snapshot, directly or via a tainted local.
				sel, ok := x.Fun.(*ast.SelectorExpr)
				if !ok || (sel.Sel.Name != "Insert" && sel.Sel.Name != "Delete") {
					return true
				}
				if s, ok := pass.Info.Selections[sel]; !ok || s.Kind() != types.MethodVal {
					return true
				}
				i := versionPathTarget(pass.Info, sel.X)
				if i < 0 {
					if id, ok := sel.X.(*ast.Ident); ok {
						if ti, ok := tainted[pass.Info.ObjectOf(id)]; ok {
							i = ti
						}
					}
				}
				if i >= 0 {
					reportVersionMut(pass, x.Pos(), i, sel.Sel.Name+" on relation reached from")
				}
			}
			return true
		})
	}
	return nil
}

// reportVersionMut emits one versionmut diagnostic unless the site is the
// target's constructor.
func reportVersionMut(pass *Pass, pos token.Pos, i int, action string) {
	if versionAllowed(pass, i, enclosingFunc(pass.Files, pos)) {
		return
	}
	pass.Reportf(pos, fmt.Sprintf(
		"%s published %s outside its constructor %s; published versions are immutable",
		action, versionTargetName(i), versionTargets[i].ctor))
}
