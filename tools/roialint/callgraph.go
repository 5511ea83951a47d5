package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Interprocedural core: a module-wide call graph with per-function
// summaries. Phase one (BuildGraph) runs once over every loaded package and
// records, for each function — declared or literal — what it calls, what it
// spawns, and a set of fact sites (wall-clock reads, global rand, map
// ranges, blocking operations, output emission, allocations, tickers).
// Phase two is the GraphAnalyzers: they combine summaries with reachability
// from the tick entry points (Server.Tick, executor workers, wire.Writer
// producers) to check invariants that no single-package pass can see.

// EdgeKind classifies how a caller reaches a callee.
type EdgeKind uint8

const (
	// EdgeCall is a direct synchronous call (including defer).
	EdgeCall EdgeKind = iota
	// EdgeSpawn is a `go` statement: the callee runs concurrently.
	EdgeSpawn
	// EdgeRef is a function value that escapes without an immediate call:
	// a literal or method value passed as an argument or assigned.
	EdgeRef
)

// Edge is one caller→callee relationship.
type Edge struct {
	Kind   EdgeKind
	Callee *FuncNode
	Site   ast.Node
	// Dynamic marks edges resolved through a module-declared interface:
	// the callee is one of possibly several implementations. Dynamic
	// edges widen reachability but are excluded from the blocking
	// fixpoint (a dynamic callee that blocks in one implementation would
	// otherwise taint every caller of the interface).
	Dynamic bool
}

// SiteKind classifies a summary fact site inside one function body.
type SiteKind uint8

const (
	SiteClock        SiteKind = iota // time.Now / time.Sleep
	SiteRandGlobal                   // math/rand global-source call
	SiteMapRange                     // range over a map
	SiteSpawn                        // `go` statement
	SiteTicker                       // time.NewTicker / time.NewTimer / time.Tick
	SiteSchedDep                     // runtime.GOMAXPROCS / runtime.NumCPU read
	SiteAllocFmt                     // fmt formatting call
	SiteAllocConcat                  // non-constant string concatenation
	SiteAllocBox                     // interface boxing at a call boundary
	SiteAllocAppend                  // append to a slice declared without capacity
	SiteAllocClosure                 // escaping closure that captures variables
)

// allocKinds maps allocation site kinds to the stable names used in the
// hotpathalloc baseline file.
var allocKinds = map[SiteKind]string{
	SiteAllocFmt:     "fmt",
	SiteAllocConcat:  "concat",
	SiteAllocBox:     "box",
	SiteAllocAppend:  "append",
	SiteAllocClosure: "closure",
}

// Site is one recorded fact inside a function body.
type Site struct {
	Kind   SiteKind
	Node   ast.Node
	Detail string
	// Target is the spawned function for SiteSpawn when statically known
	// (a `go` on a literal or module function); nil for func values and
	// non-module callees.
	Target *FuncNode
	// SortedAfter marks a map range followed by a sort.* / slices.Sort*
	// call later in the same function — the collect-then-sort idiom.
	SortedAfter bool
	// Benign marks a map-range body whose effects are order-insensitive
	// (only deletes, map writes, and scalar accumulation).
	Benign bool
}

// FuncNode is one function in the graph: a declaration or a literal.
type FuncNode struct {
	Pkg    *Package
	File   *ast.File
	Name   string        // printable: "(*Server).Tick", "Eval", "run.func1"
	Decl   *ast.FuncDecl // nil for literals
	Lit    *ast.FuncLit  // nil for declarations
	Obj    *types.Func   // nil for literals
	Parent *FuncNode     // enclosing function, for literals
	Edges  []Edge
	Sites  []*Site

	// Reachability roots.
	TickRoot     bool // method named Tick on a type named Server
	WorkerRoot   bool // literal passed to (executor).run, or a function of its worker type
	WireProducer bool // signature mentions a <...>/wire.Writer

	// Direct facts, set while summarizing the body.
	blocksDirect bool
	blockWhy     string
	blockSite    ast.Node
	emitsDirect  bool
	stopsDirect  bool

	// Transitive facts, computed by fixpoint over the finished graph.
	Blocks    bool     // may block (static call closure)
	BlockWhy  string   // root-cause description of the blocking site
	BlockSite ast.Node // root-cause position
	Emits     bool     // transitively writes formatted output
	stops     bool     // transitively contains goroutine join/stop evidence

	litIndex int // running literal counter for naming child closures
}

// Pos returns the node's declaration position.
func (n *FuncNode) Pos() token.Pos {
	if n.Decl != nil {
		return n.Decl.Pos()
	}
	return n.Lit.Pos()
}

// Body returns the function body, or nil for bodyless declarations.
func (n *FuncNode) Body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	return n.Lit.Body
}

// RelFile returns the node's file path relative to the loader root.
func (n *FuncNode) RelFile() string { return n.Pkg.RelFiles[n.File] }

// Graph is the finished module-wide call graph.
type Graph struct {
	Fset   *token.FileSet
	Module string
	Pkgs   []*Package
	Nodes  []*FuncNode

	byObj      map[*types.Func]*FuncNode
	byLit      map[*ast.FuncLit]*FuncNode
	reportable map[*Package]bool
	hot        map[*FuncNode]bool // synchronous per-tick work
	det        map[*FuncNode]bool // deterministic-output scope
}

// Reportable reports whether findings in the node's package were requested
// on the command line (the graph always spans every loaded package).
func (g *Graph) Reportable(n *FuncNode) bool { return g.reportable[n.Pkg] }

// HotPath reports whether n runs synchronously inside a tick: reachable
// from Server.Tick or an executor worker closure through static and
// interface-resolved calls.
func (g *Graph) HotPath(n *FuncNode) bool { return g.hot[n] }

// DetScope reports whether n is in the byte-identical-output scope:
// reachable from an executor worker closure or any wire.Writer producer.
func (g *Graph) DetScope(n *FuncNode) bool { return g.det[n] }

// NodeOf resolves a declared function object to its graph node, or nil.
func (g *Graph) NodeOf(fn *types.Func) *FuncNode {
	if fn == nil {
		return nil
	}
	return g.byObj[fn.Origin()]
}

// BuildGraph constructs the call graph over every loaded package.
// reportable marks the packages whose findings were requested; nil means
// all of them.
func BuildGraph(l *Loader, pkgs []*Package, reportable map[*Package]bool) *Graph {
	if reportable == nil {
		reportable = map[*Package]bool{}
		for _, p := range pkgs {
			reportable[p] = true
		}
	}
	g := &Graph{
		Fset: l.Fset, Module: l.Module, Pkgs: pkgs,
		byObj: map[*types.Func]*FuncNode{}, byLit: map[*ast.FuncLit]*FuncNode{},
		reportable: reportable,
	}
	b := &graphBuilder{g: g}
	b.collectModuleTypes()

	// Pass 1: a node per declared function, so calls across packages can
	// resolve no matter the processing order.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				b.addDecl(pkg, f, fd)
			}
		}
	}

	// Pass 2: summarize bodies, creating literal nodes as they appear.
	for _, n := range append([]*FuncNode(nil), g.Nodes...) {
		if n.Decl != nil && n.Decl.Body != nil {
			b.buildBody(n, n.Decl.Body)
		}
	}

	g.fixpoints()
	g.hot = g.reach(func(n *FuncNode) bool { return n.TickRoot || n.WorkerRoot })
	g.det = g.reach(func(n *FuncNode) bool { return n.WorkerRoot || n.WireProducer })
	return g
}

// reach returns the closure of root nodes over synchronous call edges
// (static and interface-resolved; spawn and escaping refs excluded).
func (g *Graph) reach(isRoot func(*FuncNode) bool) map[*FuncNode]bool {
	seen := map[*FuncNode]bool{}
	var queue []*FuncNode
	for _, n := range g.Nodes {
		if isRoot(n) {
			seen[n] = true
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Edges {
			if e.Kind != EdgeCall {
				continue
			}
			if !seen[e.Callee] {
				seen[e.Callee] = true
				queue = append(queue, e.Callee)
			}
		}
	}
	return seen
}

// fixpoints computes the transitive Blocks, Emits, and stop-evidence bits.
func (g *Graph) fixpoints() {
	for _, n := range g.Nodes {
		if n.blocksDirect {
			n.Blocks, n.BlockWhy, n.BlockSite = true, n.blockWhy, n.blockSite
		}
		n.Emits = n.emitsDirect
		n.stops = n.stopsDirect
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes {
			for _, e := range n.Edges {
				c := e.Callee
				// Blocking propagates only through static synchronous
				// calls: one blocking implementation of an interface must
				// not taint every caller of the interface, and a spawned
				// goroutine blocking does not block its spawner.
				if !n.Blocks && e.Kind == EdgeCall && !e.Dynamic && c.Blocks {
					n.Blocks, n.BlockWhy, n.BlockSite = true, c.BlockWhy, c.BlockSite
					changed = true
				}
				// Emission propagates through everything: output produced
				// by a callee, an implementation, or a spawned goroutine
				// is still output this function causes.
				if !n.Emits && c.Emits {
					n.Emits = true
					changed = true
				}
				// Stop evidence propagates through static calls only: a
				// spawned body that calls a helper which waits on a
				// context is joinable, but evidence found through an
				// interface is too speculative to trust.
				if !n.stops && e.Kind == EdgeCall && !e.Dynamic && c.stops {
					n.stops = true
					changed = true
				}
			}
		}
	}
}

// graphBuilder carries the per-build state.
type graphBuilder struct {
	g *Graph
	// moduleTypes are all named types declared in the module, the
	// candidate set for interface resolution.
	moduleTypes []types.Type
	// ifaceCache memoizes interface-method resolution.
	ifaceCache map[ifaceKey][]*FuncNode
}

type ifaceKey struct {
	iface  *types.Interface
	method string
}

func (b *graphBuilder) collectModuleTypes() {
	b.ifaceCache = map[ifaceKey][]*FuncNode{}
	for _, pkg := range b.g.Pkgs {
		scope := pkg.Types.Scope()
		names := scope.Names()
		sort.Strings(names)
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			b.moduleTypes = append(b.moduleTypes, tn.Type())
		}
	}
}

func (b *graphBuilder) addDecl(pkg *Package, f *ast.File, fd *ast.FuncDecl) *FuncNode {
	n := &FuncNode{Pkg: pkg, File: f, Decl: fd, Name: declName(fd)}
	if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
		n.Obj = obj
		b.g.byObj[obj] = n
		if sig, ok := obj.Type().(*types.Signature); ok {
			n.WireProducer = sigMentionsWireWriter(sig)
			n.TickRoot = fd.Name.Name == "Tick" && sig.Recv() != nil && isServerType(sig.Recv().Type())
			n.WorkerRoot = isExecutorWorker(pkg, obj)
		}
	}
	b.g.Nodes = append(b.g.Nodes, n)
	return n
}

func (b *graphBuilder) addLit(parent *FuncNode, lit *ast.FuncLit) *FuncNode {
	parent.litIndex++
	n := &FuncNode{
		Pkg: parent.Pkg, File: parent.File, Lit: lit, Parent: parent,
		Name: fmtLitName(parent.Name, parent.litIndex),
	}
	if sig, ok := parent.Pkg.Info.TypeOf(lit).(*types.Signature); ok {
		n.WireProducer = sigMentionsWireWriter(sig)
	}
	b.g.byLit[lit] = n
	b.g.Nodes = append(b.g.Nodes, n)
	return n
}

func declName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	return "(" + typeExprName(fd.Recv.List[0].Type) + ")." + fd.Name.Name
}

func typeExprName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return "*" + typeExprName(t.X)
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr:
		return typeExprName(t.X)
	case *ast.IndexListExpr:
		return typeExprName(t.X)
	}
	return "?"
}

func fmtLitName(parent string, idx int) string {
	return parent + ".func" + itoa(idx)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// isServerType reports whether t (behind pointers) is a named type called
// Server — the tick-loop owner, matched by name so fixtures participate.
func isServerType(t types.Type) bool {
	n := namedType(t)
	return n != nil && n.Obj().Name() == "Server"
}

// sigMentionsWireWriter reports whether any receiver, parameter, or result
// is (a pointer to) a type named Writer declared in a package whose import
// path ends in "/wire" or is "wire" — the wire producers whose byte output
// must be deterministic.
func sigMentionsWireWriter(sig *types.Signature) bool {
	check := func(t types.Type) bool {
		n := namedType(t)
		if n == nil || n.Obj().Pkg() == nil || n.Obj().Name() != "Writer" {
			return false
		}
		p := n.Obj().Pkg().Path()
		return p == "wire" || strings.HasSuffix(p, "/wire")
	}
	if sig.Recv() != nil && check(sig.Recv().Type()) {
		return true
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if check(sig.Params().At(i).Type()) {
			return true
		}
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if check(sig.Results().At(i).Type()) {
			return true
		}
	}
	return false
}

// litContext records how an upcoming literal is used, discovered at its
// enclosing call/go/defer statement (parents visit before children).
type litContext struct {
	kind   EdgeKind
	worker bool
}

// buildBody summarizes one function body: edges, fact sites, and direct
// blocking/emission/stop evidence. Nested literals get their own nodes and
// recursive summaries; their subtrees are skipped here.
func (b *graphBuilder) buildBody(n *FuncNode, body *ast.BlockStmt) {
	info := n.Pkg.Info
	litCtx := map[*ast.FuncLit]litContext{}
	goTarget := map[*ast.FuncLit]*Site{}
	processed := map[*ast.CallExpr]bool{}
	// selectComm collects channel operations that appear as select
	// communication clauses: their blocking behavior is attributed to the
	// select statement, not the individual op.
	selectComm := map[ast.Node]bool{}
	ast.Inspect(body, func(x ast.Node) bool {
		sel, ok := x.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, cl := range sel.Body.List {
			cc := cl.(*ast.CommClause)
			if cc.Comm != nil {
				markCommOps(cc.Comm, selectComm)
			}
		}
		return true
	})
	// bareSlices are local slice variables declared without values or
	// capacity: appends onto them reallocate as they grow.
	bareSlices := bareSliceVars(info, body)
	var sortCalls []token.Pos
	var mapRanges []*Site

	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			child := b.addLit(n, x)
			ctx, ok := litCtx[x]
			if !ok {
				ctx = litContext{kind: EdgeRef}
			}
			child.WorkerRoot = ctx.worker
			n.Edges = append(n.Edges, Edge{Kind: ctx.kind, Callee: child, Site: x})
			if s := goTarget[x]; s != nil {
				s.Target = child
			}
			// A literal that escapes (passed, assigned, or spawned)
			// allocates its closure when it captures variables; an
			// immediately-invoked literal does not escape.
			if ctx.kind != EdgeCall {
				if caps := capturedVars(info, n, x); len(caps) > 0 {
					n.Sites = append(n.Sites, &Site{
						Kind: SiteAllocClosure, Node: x,
						Detail: strings.Join(caps, ", "),
					})
				}
			}
			b.buildBody(child, x.Body)
			return false
		case *ast.GoStmt:
			processed[x.Call] = true
			site := &Site{Kind: SiteSpawn, Node: x}
			n.Sites = append(n.Sites, site)
			if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
				litCtx[lit] = litContext{kind: EdgeSpawn}
				goTarget[lit] = site
			}
			b.handleCall(n, x.Call, EdgeSpawn, litCtx, site)
		case *ast.DeferStmt:
			processed[x.Call] = true
			// defer close(ch) is a completion signal: someone on the
			// other end joins this goroutine.
			if id, ok := ast.Unparen(x.Call.Fun).(*ast.Ident); ok && id.Name == "close" {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					n.stopsDirect = true
				}
			}
			b.handleCall(n, x.Call, EdgeCall, litCtx, nil)
		case *ast.CallExpr:
			if !processed[x] {
				b.handleCall(n, x, EdgeCall, litCtx, nil)
			}
		case *ast.SendStmt:
			if !selectComm[x] {
				b.block(n, x, "channel send")
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				n.stopsDirect = true
				if !selectComm[x] {
					b.block(n, x, "channel receive")
				}
			}
		case *ast.SelectStmt:
			n.stopsDirect = true
			hasDefault := false
			for _, cl := range x.Body.List {
				if cl.(*ast.CommClause).Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				b.block(n, x, "select without default")
			}
		case *ast.RangeStmt:
			switch info.TypeOf(x.X).Underlying().(type) {
			case *types.Map:
				s := &Site{Kind: SiteMapRange, Node: x, Benign: benignMapRangeBody(info, x)}
				n.Sites = append(n.Sites, s)
				mapRanges = append(mapRanges, s)
			case *types.Chan:
				n.stopsDirect = true
				b.block(n, x, "range over channel")
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isNonConstString(info, x) {
				n.Sites = append(n.Sites, &Site{Kind: SiteAllocConcat, Node: x})
			}
		case *ast.AssignStmt:
			if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 && isStringType(info.TypeOf(x.Lhs[0])) {
				n.Sites = append(n.Sites, &Site{Kind: SiteAllocConcat, Node: x})
			}
			// A literal assigned to a plain local (helper := func(...){...})
			// stays on the stack and runs synchronously when called:
			// treat it as a call edge, not an escaping reference.
			for i, rhs := range x.Rhs {
				lit, ok := ast.Unparen(rhs).(*ast.FuncLit)
				if !ok || i >= len(x.Lhs) {
					continue
				}
				if _, isIdent := ast.Unparen(x.Lhs[i]).(*ast.Ident); isIdent {
					if _, exists := litCtx[lit]; !exists {
						litCtx[lit] = litContext{kind: EdgeCall}
					}
				}
			}
		}
		return true
	})

	// Second look at calls we could only classify structurally above:
	// sort evidence for map ranges and appends onto bare slices.
	ast.Inspect(body, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isSortCall(info, call) {
			sortCalls = append(sortCalls, call.Pos())
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" && len(call.Args) > 0 {
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
				if dst, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
					if obj := info.Uses[dst]; obj != nil && bareSlices[obj] {
						n.Sites = append(n.Sites, &Site{Kind: SiteAllocAppend, Node: call, Detail: dst.Name})
					}
				}
			}
		}
		return true
	})
	for _, s := range mapRanges {
		end := s.Node.End()
		for _, p := range sortCalls {
			if p > end {
				s.SortedAfter = true
				break
			}
		}
	}
}

// markCommOps marks the channel operations in a select communication
// clause so the general send/receive rules skip them.
func markCommOps(stmt ast.Stmt, set map[ast.Node]bool) {
	set[stmt] = true
	ast.Inspect(stmt, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.SendStmt:
			set[x] = true
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				set[x] = true
			}
		}
		return true
	})
}

func (b *graphBuilder) block(n *FuncNode, site ast.Node, why string) {
	if !n.blocksDirect {
		n.blocksDirect, n.blockWhy, n.blockSite = true, why, site
	}
}

// handleCall classifies one call expression: an edge for module callees
// (including interface-method resolution), fact sites for the standard
// library, and boxing detection at the argument boundary.
func (b *graphBuilder) handleCall(n *FuncNode, call *ast.CallExpr, kind EdgeKind, litCtx map[*ast.FuncLit]litContext, spawn *Site) {
	info := n.Pkg.Info

	// Literal arguments: executor worker closures are roots; everything
	// else passed as an argument escapes (EdgeRef).
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "run" && isExecutorType(info.TypeOf(sel.X)) {
		for _, arg := range call.Args {
			if lit, ok := arg.(*ast.FuncLit); ok {
				litCtx[lit] = litContext{kind: EdgeRef, worker: true}
			}
		}
	} else {
		for _, arg := range call.Args {
			if lit, ok := arg.(*ast.FuncLit); ok {
				if _, exists := litCtx[lit]; !exists {
					litCtx[lit] = litContext{kind: EdgeRef}
				}
			}
		}
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		if _, exists := litCtx[lit]; !exists {
			litCtx[lit] = litContext{kind: kind}
		}
	}

	// Module function and method values passed as arguments escape too.
	for _, arg := range call.Args {
		if fn := funcValueObj(info, arg); fn != nil {
			if target := b.g.byObj[fn.Origin()]; target != nil {
				n.Edges = append(n.Edges, Edge{Kind: EdgeRef, Callee: target, Site: arg})
			}
		}
	}

	obj := calleeObj(info, call)
	fn, _ := obj.(*types.Func)
	if fn == nil {
		b.checkBoxing(n, call, nil)
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	b.checkBoxing(n, call, sig)

	// Interface-method call: resolve to every module implementation.
	if sig != nil && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
		if fn.Pkg() != nil && b.inModule(fn.Pkg().Path()) {
			for _, impl := range b.resolveInterface(sig.Recv().Type(), fn.Name(), fn.Pkg()) {
				n.Edges = append(n.Edges, Edge{Kind: kind, Callee: impl, Site: call, Dynamic: true})
				if spawn != nil && spawn.Target == nil {
					spawn.Target = impl
				}
			}
		}
		return
	}

	// Module callee: a static edge.
	if target := b.g.byObj[fn.Origin()]; target != nil {
		n.Edges = append(n.Edges, Edge{Kind: kind, Callee: target, Site: call})
		if spawn != nil {
			spawn.Target = target
		}
		return
	}

	// Non-module callee: classify the standard-library facts we track.
	b.classifyStdCall(n, call, fn, sig)
}

// inModule reports whether an import path belongs to the analyzed module.
func (b *graphBuilder) inModule(path string) bool {
	return path == b.g.Module || strings.HasPrefix(path, b.g.Module+"/")
}

// classifyStdCall records fact sites for standard-library calls.
func (b *graphBuilder) classifyStdCall(n *FuncNode, call *ast.CallExpr, fn *types.Func, sig *types.Signature) {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	name := fn.Name()
	recv := sig != nil && sig.Recv() != nil

	switch pkg {
	case "time":
		if !recv {
			switch name {
			case "Now":
				n.Sites = append(n.Sites, &Site{Kind: SiteClock, Node: call, Detail: "Now"})
			case "Sleep":
				n.Sites = append(n.Sites, &Site{Kind: SiteClock, Node: call, Detail: "Sleep"})
				b.block(n, call, "time.Sleep")
			case "NewTicker", "NewTimer", "Tick":
				n.Sites = append(n.Sites, &Site{Kind: SiteTicker, Node: call, Detail: name})
			}
		}
	case "math/rand", "math/rand/v2":
		if !recv {
			switch name {
			case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
				// Constructors for injected sources are the approved idiom.
			default:
				n.Sites = append(n.Sites, &Site{Kind: SiteRandGlobal, Node: call, Detail: pkg + "." + name})
			}
		}
	case "runtime":
		if !recv && (name == "GOMAXPROCS" || name == "NumCPU") {
			n.Sites = append(n.Sites, &Site{Kind: SiteSchedDep, Node: call, Detail: "runtime." + name})
		}
	case "net":
		b.block(n, call, "net call (net."+name+")")
	case "net/http":
		b.block(n, call, "net/http call")
	case "fmt":
		if !recv {
			switch name {
			case "Fprint", "Fprintf", "Fprintln", "Print", "Printf", "Println":
				n.emitsDirect = true
				n.Sites = append(n.Sites, &Site{Kind: SiteAllocFmt, Node: call, Detail: "fmt." + name})
			case "Sprint", "Sprintf", "Sprintln", "Errorf":
				n.Sites = append(n.Sites, &Site{Kind: SiteAllocFmt, Node: call, Detail: "fmt." + name})
			}
		}
	case "io":
		if !recv && (name == "WriteString" || name == "Copy") {
			n.emitsDirect = true
		}
	case "encoding/json":
		if recv && name == "Encode" && isNamed(sig.Recv().Type(), "encoding/json", "Encoder") {
			n.emitsDirect = true
		}
	case "strings":
		if recv && strings.HasPrefix(name, "Write") && isNamed(sig.Recv().Type(), "strings", "Builder") {
			n.emitsDirect = true
		}
	case "bytes":
		if recv && strings.HasPrefix(name, "Write") && isNamed(sig.Recv().Type(), "bytes", "Buffer") {
			n.emitsDirect = true
		}
	case "sync":
		if recv && name == "Done" && isNamed(sig.Recv().Type(), "sync", "WaitGroup") {
			n.stopsDirect = true
		}
	case "context":
		if name == "Done" {
			n.stopsDirect = true
		}
	}
}

// checkBoxing records an interface-boxing site when a call passes concrete
// values into interface-typed (including variadic ...any) parameters. fmt
// calls are exempt here — they already carry a SiteAllocFmt.
func (b *graphBuilder) checkBoxing(n *FuncNode, call *ast.CallExpr, sig *types.Signature) {
	if sig == nil {
		t, _ := n.Pkg.Info.TypeOf(call.Fun).(*types.Signature)
		sig = t
	}
	if sig == nil {
		return
	}
	if obj := calleeObj(n.Pkg.Info, call); obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
		return
	}
	boxed := 0
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // a ...slice pass-through does not box
			}
			slice, ok := params.At(params.Len() - 1).Type().(*types.Slice)
			if !ok {
				continue
			}
			pt = slice.Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, isTypeParam := pt.(*types.TypeParam); isTypeParam {
			// A type-parameter's underlying is its constraint interface, but
			// generic calls instantiate at compile time — nothing boxes.
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := n.Pkg.Info.TypeOf(arg)
		if at == nil || types.IsInterface(at) {
			continue
		}
		// Pointer-shaped values fit the interface word directly — the
		// conversion itself does not allocate.
		switch at.Underlying().(type) {
		case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
			continue
		case *types.Basic:
			if at.Underlying().(*types.Basic).Kind() == types.UntypedNil {
				continue
			}
		}
		boxed++
	}
	if boxed > 0 {
		n.Sites = append(n.Sites, &Site{Kind: SiteAllocBox, Node: call, Detail: itoa(boxed) + " arg(s)"})
	}
}

// resolveInterface finds every module-declared type implementing the given
// interface and returns the graph nodes of their named method. pkg is the
// interface's declaring package, needed to match unexported method names.
func (b *graphBuilder) resolveInterface(recv types.Type, method string, pkg *types.Package) []*FuncNode {
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	key := ifaceKey{iface, method}
	if impls, ok := b.ifaceCache[key]; ok {
		return impls
	}
	var impls []*FuncNode
	for _, t := range b.moduleTypes {
		if types.IsInterface(t.Underlying()) {
			continue
		}
		ptr := types.NewPointer(t)
		if !types.Implements(t, iface) && !types.Implements(ptr, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, pkg, method)
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if node := b.g.byObj[fn.Origin()]; node != nil {
			impls = append(impls, node)
		}
	}
	b.ifaceCache[key] = impls
	return impls
}

// funcValueObj returns the declared function a bare identifier or selector
// argument denotes (a function, method value, or method expression), or
// nil. Only called on argument positions, never on the call's Fun.
func funcValueObj(info *types.Info, arg ast.Expr) *types.Func {
	switch e := ast.Unparen(arg).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[e].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel := info.Selections[e]; sel != nil {
			if sel.Kind() == types.MethodExpr || sel.Kind() == types.MethodVal {
				fn, _ := sel.Obj().(*types.Func)
				return fn
			}
			return nil
		}
		// Qualified identifier (pkg.Fn): no selection entry.
		fn, _ := info.Uses[e.Sel].(*types.Func)
		return fn
	}
	return nil
}

// capturedVars lists the variables a literal captures from its enclosing
// functions — the free variables that force a heap-allocated closure.
func capturedVars(info *types.Info, parent *FuncNode, lit *ast.FuncLit) []string {
	type span struct{ lo, hi token.Pos }
	var outer []span
	for p := parent; p != nil; p = p.Parent {
		if p.Decl != nil {
			outer = append(outer, span{p.Decl.Pos(), p.Decl.End()})
		} else {
			outer = append(outer, span{p.Lit.Pos(), p.Lit.End()})
		}
	}
	seen := map[string]bool{}
	var out []string
	ast.Inspect(lit.Body, func(x ast.Node) bool {
		id, ok := x.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		p := v.Pos()
		if p >= lit.Pos() && p < lit.End() {
			return true // the literal's own local or parameter
		}
		for _, s := range outer {
			if p >= s.lo && p < s.hi {
				if !seen[v.Name()] {
					seen[v.Name()] = true
					out = append(out, v.Name())
				}
				break
			}
		}
		return true
	})
	sort.Strings(out)
	return out
}

// bareSliceVars collects local slice variables declared with no value and
// no capacity (`var x []T`): growing them by append reallocates.
func bareSliceVars(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(body, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		decl, ok := x.(*ast.DeclStmt)
		if !ok {
			return true
		}
		gd, ok := decl.Decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			return true
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok || len(vs.Values) > 0 {
				continue
			}
			for _, name := range vs.Names {
				obj := info.Defs[name]
				if obj == nil {
					continue
				}
				if _, ok := obj.Type().Underlying().(*types.Slice); ok {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// isSortCall reports whether call invokes sort.* or slices.Sort* — the
// evidence that map keys collected by a preceding range get ordered.
func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	obj := calleeObj(info, call)
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() {
	case "sort":
		return true
	case "slices":
		return strings.HasPrefix(obj.Name(), "Sort")
	}
	return false
}

// benignMapRangeBody reports whether a map-range body is order-insensitive:
// only deletes, writes into maps, and scalar accumulation — no calls (other
// than the delete builtin), sends, spawns, appends, early exits, or writes
// through ordered indices.
func benignMapRangeBody(info *types.Info, rng *ast.RangeStmt) bool {
	benign := true
	ast.Inspect(rng.Body, func(x ast.Node) bool {
		if !benign {
			return false
		}
		switch x := x.(type) {
		case *ast.CallExpr:
			// Type conversions (float64(v), ID(k), ...) are values, not
			// effects.
			if tv, ok := info.Types[x.Fun]; ok && tv.IsType() {
				return true
			}
			id, ok := ast.Unparen(x.Fun).(*ast.Ident)
			if !ok {
				benign = false
				return false
			}
			if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
				benign = false
				return false
			}
			switch id.Name {
			case "delete", "len", "cap", "min", "max":
			default:
				benign = false
				return false
			}
		case *ast.SendStmt, *ast.GoStmt, *ast.DeferStmt, *ast.ReturnStmt, *ast.BranchStmt:
			benign = false
			return false
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					if _, isMap := info.TypeOf(idx.X).Underlying().(*types.Map); !isMap {
						benign = false // slice/array writes are order-sensitive
						return false
					}
				}
			}
		}
		return true
	})
	return benign
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	bt, ok := t.Underlying().(*types.Basic)
	return ok && bt.Info()&types.IsString != 0
}

func isNonConstString(info *types.Info, e *ast.BinaryExpr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Value != nil {
		return false
	}
	return isStringType(tv.Type)
}
