// Package callgraph is the unit-test fixture for the interprocedural core:
// a miniature tick pipeline exercising every edge kind, the reachability
// roots, and the blocking/emission/stop fixpoints. It has no golden file —
// callgraph_test.go asserts on the graph structure directly.
package callgraph

import (
	"fmt"
	"time"
)

// workerCtx is the per-worker scratch; its pointer in the worker type
// keeps unrelated func(int) methods (mem.Put below) from matching it.
type workerCtx struct{}

type executor struct{}

func (e *executor) run(n int, fn func(i int, ctx *workerCtx)) {
	for i := 0; i < n; i++ {
		fn(i, &workerCtx{})
	}
}

// Server.Tick is the hot-path root.
type Server struct {
	e      *executor
	itemFn func(i int, ctx *workerCtx)
}

func (s *Server) Tick() {
	s.e.run(2, func(i int, ctx *workerCtx) {
		helper()
	})
	s.e.run(2, s.itemFn)
	go spawned()
}

// item is a worker root by its type: New binds it as a method value, so
// run never sees a literal.
func (s *Server) item(i int, ctx *workerCtx) { itemHelper() }

func itemHelper() {}

func New() *Server {
	s := &Server{e: &executor{}}
	s.itemFn = s.item
	return s
}

func helper() { time.Sleep(time.Millisecond) }

func spawned() { <-make(chan int) }

// Sink exercises interface resolution: drive's call is a dynamic edge to
// every module implementation.
type Sink interface{ Put(v int) }

type mem struct{}

func (m *mem) Put(v int) { emit(v) }

func emit(v int) { fmt.Println(v) }

func drive(s Sink) { s.Put(1) }
