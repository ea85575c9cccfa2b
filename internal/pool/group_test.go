package pool

import (
	"sync/atomic"
	"testing"
)

// TestGroupWaitsForNestedSpawns starts goroutines from several goroutines
// at once, each of which starts more, and requires Wait to return only
// after every one of them has run: the accept-loop shape, where the loop
// itself runs in the Group and starts one goroutine per connection.
func TestGroupWaitsForNestedSpawns(t *testing.T) {
	const spawners, children = 8, 64
	var g Group
	var ran atomic.Int64
	for i := 0; i < spawners; i++ {
		g.Go(func() {
			for j := 0; j < children; j++ {
				g.Go(func() { ran.Add(1) })
			}
		})
	}
	g.Wait()
	if got := ran.Load(); got != spawners*children {
		t.Fatalf("Wait returned after %d of %d goroutines", got, spawners*children)
	}
}

// TestGroupWaitBlocksUntilDone holds one goroutine open and checks that
// Wait does not return before it does, and that the Group is reusable
// afterwards.
func TestGroupWaitBlocksUntilDone(t *testing.T) {
	var g Group
	release := make(chan struct{})
	var finished atomic.Bool
	g.Go(func() {
		<-release
		finished.Store(true)
	})
	waited := make(chan struct{})
	var waiter Group
	waiter.Go(func() {
		g.Wait()
		close(waited)
	})
	select {
	case <-waited:
		t.Fatal("Wait returned while a goroutine was still running")
	default:
	}
	close(release)
	<-waited
	if !finished.Load() {
		t.Fatal("Wait returned before the goroutine finished")
	}
	waiter.Wait()

	g.Go(func() { finished.Store(false) })
	g.Wait()
	if finished.Load() {
		t.Fatal("a Group reused after Wait did not run its goroutine")
	}
}
