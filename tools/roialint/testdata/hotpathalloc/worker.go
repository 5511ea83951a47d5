package hotpathalloc

import "fmt"

// workerCtx and executor mirror the tick pipeline's worker pool.
type workerCtx struct{ buf []byte }

type executor struct{ ctx workerCtx }

func (e *executor) run(n int, fn func(i int, ctx *workerCtx)) {
	for i := 0; i < n; i++ {
		fn(i, &e.ctx)
	}
}

// Pipeline binds its stage body as a method value, as server.New does:
// run never sees a literal, yet publishItem runs on the workers.
type Pipeline struct {
	exec      *executor
	publishFn func(i int, ctx *workerCtx)
	out       []string
}

func NewPipeline() *Pipeline {
	p := &Pipeline{exec: &executor{}}
	p.publishFn = p.publishItem
	return p
}

func (p *Pipeline) Step() { p.exec.run(len(p.out), p.publishFn) }

func (p *Pipeline) publishItem(i int, ctx *workerCtx) {
	p.out[i] = fmt.Sprintf("item %d", i) // bad: fmt on a worker
}
