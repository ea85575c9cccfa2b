package pool

import "context"

// Gate is a counting semaphore used for admission control: a fixed number
// of slots, a non-blocking TryEnter for request paths that prefer shedding
// load over queueing, and a context-aware Enter for callers that can wait.
// It lives here, next to Map and Each, so every way this module bounds
// concurrency sits in one package.
type Gate struct {
	slots chan struct{}
}

// NewGate returns a gate admitting at most n concurrent holders; n <= 0 is
// treated as 1.
func NewGate(n int) *Gate {
	if n <= 0 {
		n = 1
	}
	return &Gate{slots: make(chan struct{}, n)}
}

// TryEnter claims a slot without blocking and reports whether it succeeded.
// Callers that get true must call Leave exactly once.
func (g *Gate) TryEnter() bool {
	select {
	case g.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

// Enter blocks until a slot is free or ctx is done, returning ctx.Err() in
// the latter case. On nil return the caller must call Leave exactly once.
func (g *Gate) Enter(ctx context.Context) error {
	select {
	case g.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Leave releases a slot claimed by TryEnter or Enter.
func (g *Gate) Leave() {
	select {
	case <-g.slots:
	default:
		panic("pool: Gate.Leave: release without a matching acquire")
	}
}
