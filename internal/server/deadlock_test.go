package server

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// TestNoDeadlockColdBuildEvictionStatsScrape pins the blessed lock order
// between the job manager and the cache: Jobs methods may acquire c.mu
// while holding j.mu (Submit's cached-profile fast path), the cache never
// calls back into Jobs, and builds always run with c.mu released. The
// test recreates the production collision that order exists for — cold
// profile builds racing singleflight coalescing, a byte budget so tight
// every insert evicts, and a /statsz-style scraper hammering both Stats
// snapshots and the warm resident/CachedProfile paths — under a hard
// deadline, so a future lock-ordering regression surfaces as a test
// failure with full stacks instead of a hung CI job. Run under -race this
// also checks the snapshot paths copy instead of alias.
func TestNoDeadlockColdBuildEvictionStatsScrape(t *testing.T) {
	// ~1 KiB keeps at most a couple of entries resident: nearly every
	// build triggers the eviction sweep inside insert while other
	// goroutines are blocked on flights or scraping stats.
	c := NewCache(1 << 10)
	j := NewJobs(c, 2)
	// A write-back hook, so built profiles hand work to the runner while
	// other jobs wait for build slots.
	j.writeBack = func(Key, *core.BFSResult) {}

	keys := []Key{
		msKey(2, 1), // k=3
		msKey(3, 1), // k=4
		msKey(2, 2), // k=5
		msKey(4, 1), // k=5
		msKey(5, 1), // k=6
		msKey(3, 2), // k=7
		msKey(7, 1), // k=8
	}

	const (
		submitters = 4
		builders   = 4
		scrapers   = 2
		rounds     = 60
	)
	var wg sync.WaitGroup

	// Submit paths: j.mu -> c.mu (cached fast path), coalescing onto a
	// key's job, the slot wait, and the j.mu / build / j.mu sequence
	// followed by a write-back hand-off.
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				key := keys[(i+w)%len(keys)]
				if _, err := j.Submit(context.Background(), key, "deadlock-test"); err != nil {
					t.Errorf("Submit(%v): %v", key, err)
				}
				if i%8 == 0 {
					// A Get on a random-ish ID exercises j.mu alone.
					_, _ = j.Get("job-1")
				}
			}
		}(w)
	}

	// Synchronous cold-build path (the /v1/metrics shape): misses
	// coalesce onto flights, winners build with c.mu released, and every
	// insert runs the eviction sweep.
	for w := 0; w < builders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < rounds; i++ {
				key := keys[(i+2*w)%len(keys)]
				if _, err := c.Network(ctx, key); err != nil {
					t.Errorf("Network(%v): %v", key, err)
				}
				if _, _, err := c.profile(ctx, key); err != nil {
					t.Errorf("profile(%v): %v", key, err)
				}
			}
		}(w)
	}

	// The /statsz scrape plus the warm /v1/route fast path.
	for w := 0; w < scrapers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds*8; i++ {
				_ = c.Stats()
				_ = j.Stats()
				key := keys[(i+w)%len(keys)]
				_, _, _ = c.resident(key, true)
				_, _ = c.CachedProfile(key)
			}
		}(w)
	}

	done := make(chan struct{})
	go func() {
		wg.Wait()
		j.Close() // drains every write-back
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("deadlock: cold builds, evictions, and stats scrapes did not settle in 60s; goroutine dump:\n%s", buf[:n])
	}

	// The test only pins the j.mu -> c.mu order if the contended paths
	// actually ran: demand evictions and at least one coalesced miss.
	st := c.Stats()
	if st.Evictions == 0 {
		t.Errorf("budget never forced an eviction (stats %+v); the test lost its teeth", st)
	}
	if st.Builds == 0 || st.Misses == 0 {
		t.Errorf("no cold builds observed (stats %+v)", st)
	}
}
