package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CtxFlow enforces the cancellation discipline from the PR 4 commit-point
// rule: library code must thread the caller's context (no
// context.Background()/TODO() escapes), context.WithoutCancel is reserved
// for the one documented post-commit-point helper (warehouse.postCommit —
// once a change is landed it must finish publishing even if the caller
// gives up), the commit point itself — (*space.Space).ApplyChange — is
// reached only from the synchronization pass (warehouse.SyncPass), so the
// rank → land → adopt → publish sequence and its cancellation rule cannot be
// written a second time, and exported functions on the hot engine paths that
// loop over tuple or batch slices must actually consult their ctx parameter
// so a cancel can land between batches.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc: "flags context.Background()/TODO() in library code, " +
		"context.WithoutCancel outside the documented post-commit helper, " +
		"(*space.Space).ApplyChange outside the synchronization pass, " +
		"and exported engine functions that loop over tuples/batches without " +
		"consulting ctx (the PR 4 commit-point cancellation rule)",
	Run: runCtxFlow,
}

// ctxLoopSegments are the package-path segments whose exported functions
// are on the engine's hot paths and must poll ctx when looping over data.
var ctxLoopSegments = []string{"plan", "evolve", "maintain", "warehouse", "conc"}

// inWarehouseFunc reports whether pos lies inside the warehouse package's
// function fn — the form of both commit-point allowances: only postCommit
// may call context.WithoutCancel, and only SyncPass (*space.Space).ApplyChange.
func inWarehouseFunc(pass *Pass, pos token.Pos, fn string) bool {
	return enclosingFunc(pass.Files, pos) == fn && PathHasSegment(pass.Path, "warehouse")
}

// isLanding reports whether fn is (*space.Space).ApplyChange.
func isLanding(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	return fn.Name() == "ApplyChange" && recv != nil && TypeIs(recv.Type(), "space", "Space")
}

// runCtxFlow implements the ctxflow analyzer.
func runCtxFlow(pass *Pass) error {
	isMain := pass.Pkg.Name() == "main"
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if isLanding(fn) && !inWarehouseFunc(pass, call.Pos(), "SyncPass") {
				pass.Reportf(call.Pos(),
					"(*space.Space).ApplyChange lands a capability change outside the synchronization pass (warehouse.SyncPass); hand the change to the pass")
			}
			if fn.Pkg().Path() != "context" {
				return true
			}
			switch fn.Name() {
			case "Background", "TODO":
				if !isMain {
					pass.Reportf(call.Pos(),
						"context."+fn.Name()+"() in library code severs cancellation; thread the caller's ctx instead")
				}
			case "WithoutCancel":
				if inWarehouseFunc(pass, call.Pos(), "postCommit") {
					return true
				}
				pass.Reportf(call.Pos(),
					"context.WithoutCancel outside the documented post-commit helper (warehouse.postCommit)")
			}
			return true
		})
	}
	if isMain || !pathHasAnySegment(pass.Path, ctxLoopSegments) {
		return nil
	}
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() || fd.Body == nil {
				continue
			}
			checkCtxLoop(pass, fd)
		}
	}
	return nil
}

// pathHasAnySegment reports whether path contains any of segs as a segment.
func pathHasAnySegment(path string, segs []string) bool {
	for _, s := range segs {
		if PathHasSegment(path, s) {
			return true
		}
	}
	return false
}

// calleeFunc resolves a call's static callee, or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := info.ObjectOf(f).(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.ObjectOf(f.Sel).(*types.Func)
		return fn
	}
	return nil
}

// checkCtxLoop flags fd when it ranges over a tuple/batch slice but never
// consults a context: either it has a ctx parameter that the body ignores,
// or it loops over data with no ctx parameter at all.
func checkCtxLoop(pass *Pass, fd *ast.FuncDecl) {
	var loopPos ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok || loopPos != nil {
			return true
		}
		if isTupleSlice(pass.Info.TypeOf(rs.X)) {
			loopPos = rs
			return false
		}
		return true
	})
	if loopPos == nil {
		return
	}
	ctxParams := ctxParamObjects(pass, fd)
	if len(ctxParams) == 0 {
		pass.Reportf(loopPos.Pos(),
			"exported "+fd.Name.Name+" loops over tuples/batches but takes no context.Context; cancellation cannot reach this loop")
		return
	}
	used := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && ctxParams[pass.Info.ObjectOf(id)] {
			used = true
			return false
		}
		return true
	})
	if !used {
		pass.Reportf(loopPos.Pos(),
			"exported "+fd.Name.Name+" loops over tuples/batches without consulting its ctx parameter; poll ctx so cancellation can land")
	}
}

// isTupleSlice reports whether t is a slice (or named slice) of
// relation.Tuple or relation.ColumnBatch values.
func isTupleSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	return TypeIs(sl.Elem(), "relation", "Tuple") || TypeIs(sl.Elem(), "relation", "ColumnBatch")
}

// ctxParamObjects collects fd's context.Context parameter objects.
func ctxParamObjects(pass *Pass, fd *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	if fd.Type.Params == nil {
		return out
	}
	for _, f := range fd.Type.Params.List {
		if !TypeIs(pass.Info.TypeOf(f.Type), "context", "Context") {
			continue
		}
		for _, name := range f.Names {
			if obj := pass.Info.ObjectOf(name); obj != nil {
				out[obj] = true
			}
		}
	}
	return out
}
