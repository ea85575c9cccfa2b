package pool

import (
	"runtime"
	"sync"
)

// Runner is a bounded asynchronous executor: a fixed set of worker
// goroutines draining a bounded queue. It complements Map and Each (which
// block until a whole batch finishes) for work that is submitted one task
// at a time and outlives its submitter — scgd's store write-backs and its
// runtime/metrics sampler. Like the rest
// of this package it is a spawn chokepoint: scgd routes background work
// through a Runner instead of raw go statements.
type Runner struct {
	tasks chan func()
	wg    sync.WaitGroup

	mu     sync.Mutex
	closed bool
}

// NewRunner starts a runner with the given worker count (<= 0 means
// runtime.GOMAXPROCS(0)) and queue depth (< 0 is treated as 0; a zero-depth
// queue admits a task only when a worker is idle).
func NewRunner(workers, queue int) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if queue < 0 {
		queue = 0
	}
	r := &Runner{tasks: make(chan func(), queue)}
	for w := 0; w < workers; w++ {
		r.wg.Add(1)
		go r.work()
	}
	return r
}

func (r *Runner) work() {
	defer r.wg.Done()
	for fn := range r.tasks {
		fn()
	}
}

// Submit enqueues fn for execution and reports whether it was admitted:
// false means the queue is full (every worker busy and every buffer slot
// taken) or the runner is closed. fn runs exactly once when admitted.
func (r *Runner) Submit(fn func()) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return false
	}
	select {
	case r.tasks <- fn:
		return true
	default:
		return false
	}
}

// Close stops admitting new tasks and blocks until every already-admitted
// task has finished — the drain half of a graceful shutdown. Close is
// idempotent.
func (r *Runner) Close() {
	r.mu.Lock()
	if !r.closed {
		r.closed = true
		close(r.tasks)
	}
	r.mu.Unlock()
	r.wg.Wait()
}
