package pool

import "sync"

// Group runs goroutines whose number is not known up front, such as one per
// accepted connection, and waits for all of them: the chokepoint for the
// spawns of a serving loop, as Runner is for background work. scgd starts such
// goroutines through a Group instead of raw go statements, so whoever owns
// the Group can wait until every one of them has returned.
//
// The zero value is ready to use. Go may be called before Wait, or from a
// goroutine the Group runs, at any time; once Wait has returned it may be
// called again. A Group must not be copied after first use.
type Group struct {
	wg sync.WaitGroup
}

// Go runs fn on a new goroutine that the Group tracks.
func (g *Group) Go(fn func()) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		fn()
	}()
}

// Wait blocks until every goroutine started with Go has returned,
// including those started while Wait was blocked.
func (g *Group) Wait() { g.wg.Wait() }
