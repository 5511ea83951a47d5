package server

import (
	"sync"
	"time"

	"roia/internal/rtf/entity"
	"roia/internal/rtf/proto"
	"roia/internal/rtf/wire"
)

// workerCtx is the per-worker scratch state of the tick pipeline's
// parallel stages, reused across ticks so the fan-out allocates nothing
// per stage: a serialization buffer for state-update encoding, an AoI
// result buffer, and the delta-publish scratch (masked update records,
// visible-set diff buffers, and a full-entity buffer for keyframes and
// enter records). A workerCtx is only ever touched by the one worker it
// belongs to during a run, and by the tick goroutine between runs.
type workerCtx struct {
	w   *wire.Writer
	r   wire.Reader // decode-stage reader, reset per frame
	vis []entity.ID

	updates []proto.EntityDelta
	enters  []entity.ID
	gone    []entity.ID
	ents    []entity.Entity

	// Reusable message shells: encoding passes the message by interface,
	// so a stack-allocated struct would escape — one heap allocation per
	// user per tick. These live as long as the worker; publishItem fills
	// every field before each encode.
	delta    proto.StateDelta
	keyframe proto.StateKeyframe
}

// executor fans the embarrassingly-parallel tick stages (frame decode,
// per-user AoI + state-update serialization, capability-gated NPC updates)
// over a bounded worker pool. Determinism is structural, not accidental:
//
//   - Work item i always writes only slot i of a result slice sized
//     before the fan-out; workers share no mutable state but their own
//     workerCtx.
//   - Items are partitioned into contiguous chunks, so which worker runs
//     an item depends only on (n, workers) — never on scheduling.
//   - All cross-item effects (sends, monitor accounting, store writes)
//     happen in the sequential merge that follows a run, in slice order.
//
// Client-visible wire output is therefore byte-identical for any worker
// count and any GOMAXPROCS, and workers == 1 degenerates to a plain loop
// on the tick goroutine — the seed's sequential behaviour.
//
// The pool is persistent: worker goroutines are spawned once at
// construction and parked on per-worker wake channels between runs, so a
// run costs two channel operations per worker instead of a goroutine spawn
// (and the closure allocation that came with it). close releases the pool;
// Server.Stop calls it.
//
// Workers must never lock the server mutex (the tick goroutine holds it
// for the whole tick — a worker locking it would deadlock) and must read
// time only through the executor's injected clock; tools/roialint enforces
// both rules on the closures passed to run.
type executor struct {
	workers int
	clock   func() time.Time
	ctxs    []*workerCtx

	// Per-run state, written by run before waking any worker (the wake
	// send is the happens-before edge) and read-only while workers are
	// live; wg joins the run.
	fn     func(i int, ctx *workerCtx)
	n      int
	active int
	wg     sync.WaitGroup
	wake   []chan struct{}
	stopc  chan struct{}
}

// newExecutor returns an executor with the given worker count (clamped to
// at least 1). clock is the executor's only time source, injected so
// simulated runs stay deterministic and lint-checkable.
func newExecutor(workers int, clock func() time.Time) *executor {
	if workers < 1 {
		workers = 1
	}
	e := &executor{workers: workers, clock: clock}
	e.ctxs = make([]*workerCtx, workers)
	for i := range e.ctxs {
		e.ctxs[i] = &workerCtx{w: wire.NewWriter(4 << 10)}
	}
	if workers > 1 {
		e.stopc = make(chan struct{})
		e.wake = make([]chan struct{}, workers)
		for k := range e.wake {
			e.wake[k] = make(chan struct{}, 1)
			go e.worker(k)
		}
	}
	return e
}

// worker is the loop of pool worker k: park until woken, process the
// contiguous chunk k of the current run, signal completion, repeat until
// close. Chunk bounds depend only on (n, active), preserving the
// deterministic partition of the spawn-per-run predecessor.
func (e *executor) worker(k int) {
	for {
		select {
		case <-e.stopc:
			return
		case <-e.wake[k]:
			w := e.active
			fn := e.fn
			ctx := e.ctxs[k]
			for i := e.n * k / w; i < e.n*(k+1)/w; i++ {
				fn(i, ctx)
			}
			e.wg.Done()
		}
	}
}

// parallel reports whether run fans out to more than one goroutine.
func (e *executor) parallel() bool { return e.workers > 1 }

// now reads the injected clock; workers time their items with now/since
// instead of the wall clock.
func (e *executor) now() time.Time { return e.clock() }

// since returns the elapsed time from t0 in the model's millisecond unit.
func (e *executor) since(t0 time.Time) float64 {
	return float64(e.clock().Sub(t0).Nanoseconds()) / 1e6
}

// run invokes fn(i, ctx) for every i in [0, n), partitioned contiguously
// over the worker pool, and returns when all items are done. fn must obey
// the slot discipline documented on executor: write only state owned by
// item i plus the passed workerCtx. With one worker (or n <= 1) everything
// runs inline on the calling goroutine.
func (e *executor) run(n int, fn func(i int, ctx *workerCtx)) {
	if n <= 0 {
		return
	}
	w := e.workers
	if w > n {
		w = n // every chunk non-empty
	}
	if w <= 1 {
		ctx := e.ctxs[0]
		for i := 0; i < n; i++ {
			fn(i, ctx)
		}
		return
	}
	e.n, e.fn, e.active = n, fn, w
	e.wg.Add(w)
	for k := 0; k < w; k++ {
		e.wake[k] <- struct{}{}
	}
	e.wg.Wait()
	e.fn = nil
}

// close releases the pool's worker goroutines. Idempotence is the caller's
// concern (Server.Stop already runs once); run must not be called after.
func (e *executor) close() {
	if e.stopc != nil {
		close(e.stopc)
	}
}
