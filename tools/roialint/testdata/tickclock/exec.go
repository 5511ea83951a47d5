package tickclock

import "time"

// executor mirrors the tick pipeline's worker pool: closures passed to run
// execute on worker goroutines and must read time through the injected
// clock, even though this file is on the analyzer's approved list.
type executor struct{ clock func() time.Time }

func (e *executor) run(n int, fn func(i int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

func approvedExecutorUse() {
	e := &executor{clock: time.Now} // value reference to inject: fine
	e.run(4, func(i int) {
		_ = time.Now() // direct call inside a worker: flagged
	})
	e.run(2, func(i int) {
		_ = e.clock() // injected clock: fine
	})
	_ = time.Now() // approved file, tick goroutine: fine
}

// workerHelper is only called from a worker closure below: its clock read
// executes on a worker goroutine even though this file is approved.
func workerHelper() time.Time {
	return time.Now() // flagged transitively, with the call chain
}

func transitiveWorkerUse() {
	e := &executor{clock: time.Now}
	e.run(2, func(i int) {
		_ = workerHelper()
	})
}

// stage binds its body as a method value: item has the worker type, so it
// runs on worker goroutines although run never sees a literal.
type stage struct {
	e  *executor
	fn func(i int)
}

func newStage() *stage {
	s := &stage{e: &executor{clock: time.Now}}
	s.fn = s.item
	return s
}

func (s *stage) step() { s.e.run(4, s.fn) }

func (s *stage) item(i int) {
	_ = time.Now() // flagged: a method-value worker
}
