package lockhold

import "sync"

// executor mirrors the tick pipeline's worker pool: closures passed to run
// execute on worker goroutines while the tick goroutine holds the server
// mutex, so workers must never touch a mutex.
type executor struct{}

func (e *executor) run(n int, fn func(i int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

type tickSrv struct {
	mu  sync.Mutex
	sum int
}

func (s *tickSrv) tick(e *executor) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e.run(8, func(i int) {
		s.mu.Lock() // flagged: deadlocks against the tick goroutine
		s.sum += i
		s.mu.Unlock() // flagged
	})
	e.run(8, func(i int) {
		s.sum -= i // slot-owned state, no locking: fine
	})
}

// add has the worker type: tick binds it as a method value and hands it
// to run, so it executes on the workers like the literals above.
func (s *tickSrv) add(i int) {
	s.mu.Lock() // flagged
	s.sum += i
	s.mu.Unlock() // flagged
}

func (s *tickSrv) tickBound(e *executor) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn := s.add
	e.run(8, fn)
}
