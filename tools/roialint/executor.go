package main

import (
	"go/ast"
	"go/types"
)

// Executor-worker awareness, shared by tickclock and lockhold: function
// literals passed to an executor's run method, and functions declared with
// the run method's worker type (the tick binds those as method values,
// s.publishFn = s.publishItem, before handing them to run), execute on
// worker goroutines of the tick pipeline, not on the tick goroutine. Two
// rules follow from the executor's documented contract:
//
//   - workers read time only through the executor's injected clock (so
//     simulated runs stay deterministic and per-item CPU accounting stays
//     consistent across worker counts) — enforced by tickclock even inside
//     its approved wall-clock files;
//   - workers never touch a mutex (the tick goroutine holds the server
//     mutex for the whole tick; a worker locking it deadlocks, and any
//     other lock reintroduces cross-worker coupling) — enforced by
//     lockhold.

// executorWorkerBodies returns the bodies in f that run on executor
// workers: function literals passed as arguments to a run method on a
// value whose (possibly pointered) named type is called "executor", and
// declared functions of the executor's worker type.
func executorWorkerBodies(pkg *Package, f *ast.File) []*ast.BlockStmt {
	var out []*ast.BlockStmt
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil && isExecutorWorker(pkg, funcObj(pkg, fd)) {
			out = append(out, fd.Body)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "run" {
			return true
		}
		if !isExecutorType(pkg.Info.TypeOf(sel.X)) {
			return true
		}
		for _, arg := range call.Args {
			if lit, ok := arg.(*ast.FuncLit); ok {
				out = append(out, lit.Body)
			}
		}
		return true
	})
	return out
}

func isExecutorType(t types.Type) bool {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "executor"
}

// isExecutorWorker reports whether fn has the worker type of an executor
// declared in its own package: the function type of the last parameter of
// that executor's run method.
func isExecutorWorker(pkg *Package, fn *types.Func) bool {
	if fn == nil {
		return false
	}
	tn, ok := pkg.Types.Scope().Lookup("executor").(*types.TypeName)
	if !ok {
		return false
	}
	named, ok := tn.Type().(*types.Named)
	if !ok {
		return false
	}
	for i := 0; i < named.NumMethods(); i++ {
		run := named.Method(i)
		if run.Name() != "run" {
			continue
		}
		params := run.Type().(*types.Signature).Params()
		if params.Len() == 0 {
			return false
		}
		worker, ok := params.At(params.Len() - 1).Type().Underlying().(*types.Signature)
		// Identical ignores receivers, so methods match too.
		return ok && types.Identical(fn.Type(), worker)
	}
	return false
}
