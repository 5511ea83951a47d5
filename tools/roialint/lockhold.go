package main

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockHold flags blocking operations — channel sends/receives, selects
// without a default, time.Sleep, and net / net/http calls — executed while
// a sync.Mutex or sync.RWMutex is held, inside the real-time-framework
// packages (internal/rtf/...). This is the FleetDriver scrape-safety bug
// class: a tick-path mutex held across network I/O turns one slow peer
// into a fleet-wide tick stall, which corrupts every T(l,n,m) measurement
// taken during the stall.
//
// The analysis is positional and per-function: an interval runs from each
// Lock/RLock to the next non-deferred Unlock/RUnlock of the same mutex
// expression (or to the end of the function when the unlock is deferred).
// On top of the direct checks, the call-graph pass flags calls to module
// functions whose *transitive* summary blocks — the held region does not
// have to contain the channel operation itself anymore, only a call that
// eventually reaches one through static calls.
type LockHold struct {
	// PathPrefix restricts the check to files whose module-relative path
	// contains it; empty means the rtf default.
	PathPrefix string
}

func (LockHold) Name() string { return "lockhold" }

func (l LockHold) prefix() string {
	if l.PathPrefix == "" {
		return "internal/rtf/"
	}
	return l.PathPrefix
}

type lockEvent struct {
	pos     token.Pos
	lock    bool // Lock/RLock vs Unlock/RUnlock
	deferDo bool
}

func (l LockHold) Check(pkg *Package, r *Reporter) {
	for _, f := range pkg.Files {
		if !matchesAny(pkg.RelFiles[f], []string{l.prefix()}) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			l.checkFunc(pkg, fn, r)
		}
		l.checkExecutorWorkers(pkg, f, r)
	}
}

// CheckGraph is the interprocedural extension: a call under a held mutex
// to a module function that transitively blocks is as dangerous as the
// blocking operation itself, with one level (or many) of indirection.
func (l LockHold) CheckGraph(g *Graph, r *Reporter) {
	for _, pkg := range g.Pkgs {
		if !g.reportable[pkg] {
			continue
		}
		for _, f := range pkg.Files {
			if !matchesAny(pkg.RelFiles[f], []string{l.prefix()}) {
				continue
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				heldAt := lockIntervals(pkg, fn, r.fset)
				if heldAt == nil {
					continue
				}
				self := g.NodeOf(funcObj(pkg, fn))
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					key, lockPos, held := heldAt(call.Pos())
					if !held {
						return true
					}
					callee, _ := calleeObj(pkg.Info, call).(*types.Func)
					if callee == nil {
						return true
					}
					target := g.NodeOf(callee)
					if target == nil || target == self || !target.Blocks {
						return true
					}
					why, where := target.BlockWhy, ""
					if target.BlockSite != nil {
						p := r.fset.Position(target.BlockSite.Pos())
						where = r.Rel(p.Filename) + ":" + itoa(p.Line)
					}
					r.Report(call, "lockhold",
						"call to %s while %s is held (locked at line %d): it can block (%s at %s)",
						target.Name, key, r.fset.Position(lockPos).Line, why, where)
					return true
				})
			}
		}
	}
}

// funcObj resolves a declaration to its *types.Func.
func funcObj(pkg *Package, fn *ast.FuncDecl) *types.Func {
	obj, _ := pkg.Info.Defs[fn.Name].(*types.Func)
	return obj
}

// checkExecutorWorkers flags any mutex operation inside a function the
// tick executor runs on its workers: the tick goroutine holds the server
// mutex for the whole tick, so a worker locking it deadlocks — and any
// other lock reintroduces the cross-worker coupling the slot discipline
// exists to avoid.
func (LockHold) checkExecutorWorkers(pkg *Package, f *ast.File, r *Reporter) {
	for _, body := range executorWorkerBodies(pkg, f) {
		ast.Inspect(body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "Lock", "RLock", "Unlock", "RUnlock":
			default:
				return true
			}
			t := pkg.Info.TypeOf(sel.X)
			if t == nil || (!isNamed(t, "sync", "Mutex") && !isNamed(t, "sync", "RWMutex")) {
				return true
			}
			r.Report(call, "lockhold",
				"%s.%s inside an executor worker: the tick goroutine holds the server mutex for the whole tick, so workers must never touch a mutex",
				exprKey(r.fset, sel.X), sel.Sel.Name)
			return true
		})
	}
}

// lockIntervals computes the held-mutex intervals of one function and
// returns a position lookup, or nil when the function takes no locks.
func lockIntervals(pkg *Package, fn *ast.FuncDecl, fset *token.FileSet) func(token.Pos) (string, token.Pos, bool) {
	info := pkg.Info

	// Pass 1: collect Lock/Unlock events per mutex expression.
	events := map[string][]lockEvent{}
	inDefer := map[*ast.CallExpr]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			inDefer[d.Call] = true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		var isLock bool
		switch sel.Sel.Name {
		case "Lock", "RLock":
			isLock = true
		case "Unlock", "RUnlock":
		default:
			return true
		}
		t := info.TypeOf(sel.X)
		if t == nil || (!isNamed(t, "sync", "Mutex") && !isNamed(t, "sync", "RWMutex")) {
			return true
		}
		key := exprKey(fset, sel.X)
		events[key] = append(events[key], lockEvent{pos: call.Pos(), lock: isLock, deferDo: inDefer[call]})
		return true
	})
	if len(events) == 0 {
		return nil
	}

	// Build held intervals: Lock → next plain Unlock, else function end.
	type interval struct {
		key        string
		start, end token.Pos
	}
	var held []interval
	for key, evs := range events {
		for i, ev := range evs {
			if !ev.lock || ev.deferDo {
				continue
			}
			end := fn.Body.End()
			for _, after := range evs[i+1:] {
				if !after.lock && !after.deferDo && after.pos > ev.pos {
					end = after.pos
					break
				}
			}
			held = append(held, interval{key: key, start: ev.pos, end: end})
		}
	}
	if len(held) == 0 {
		return nil
	}
	return func(pos token.Pos) (string, token.Pos, bool) {
		for _, iv := range held {
			if pos > iv.start && pos < iv.end {
				return iv.key, iv.start, true
			}
		}
		return "", token.NoPos, false
	}
}

func (l LockHold) checkFunc(pkg *Package, fn *ast.FuncDecl, r *Reporter) {
	heldAt := lockIntervals(pkg, fn, r.fset)
	if heldAt == nil {
		return
	}

	// Flag blocking operations inside held intervals. Comm clauses of a
	// select with a default are non-blocking and exempted.
	nonBlocking := map[ast.Node]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDefault := false
		for _, c := range sel.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if hasDefault {
			for _, c := range sel.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
					nonBlocking[cc.Comm] = true
				}
			}
			nonBlocking[sel] = true
		}
		return true
	})
	report := func(n ast.Node, what string) {
		if key, lockPos, ok := heldAt(n.Pos()); ok {
			r.Report(n, "lockhold", "%s while %s is held (locked at line %d): a blocked peer stalls every tick waiting on this mutex",
				what, key, r.fset.Position(lockPos).Line)
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			if !nonBlocking[n] {
				report(n, "channel send")
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !commOf(n, nonBlocking) {
				report(n, "channel receive")
			}
		case *ast.SelectStmt:
			if !nonBlocking[n] {
				report(n, "select without default")
			}
		case *ast.RangeStmt:
			if t := pkg.Info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					report(n, "range over channel")
				}
			}
		case *ast.CallExpr:
			if isPkgCall(pkg.Info, n, "time", "Sleep") {
				report(n, "time.Sleep")
			} else if isPkgCall(pkg.Info, n, "net") {
				report(n, "net call")
			} else if isPkgCall(pkg.Info, n, "net/http",
				"Get", "Post", "Head", "PostForm", "Do", "Serve", "ListenAndServe", "ListenAndServeTLS", "Shutdown") {
				report(n, "net/http call")
			}
		}
		return true
	})
}

// commOf reports whether the receive expression belongs to an exempted
// (non-blocking) select comm statement.
func commOf(recv *ast.UnaryExpr, nonBlocking map[ast.Node]bool) bool {
	for stmt := range nonBlocking {
		if stmt.Pos() <= recv.Pos() && recv.End() <= stmt.End() {
			if _, ok := stmt.(*ast.SelectStmt); !ok {
				return true
			}
		}
	}
	return false
}
