// Package pool provides a small bounded worker pool for measuring
// independent network instances concurrently. Results are gathered by
// index, so callers render them in their existing fixed order and committed
// artifacts stay byte-identical no matter how the work interleaves
// (TestResultsGolden byte-compares them).
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Each runs fn(0), ..., fn(n-1) on at most workers goroutines and blocks
// until every call has returned. workers <= 0 means runtime.GOMAXPROCS(0).
// It is the side-effect counterpart of Map for callers that fan work out
// over pre-allocated per-index state (the parallel BFS engine's per-shard
// workers): fn(i) is invoked exactly once for each index, so state keyed by
// i is touched by exactly one goroutine. Each is, with Map, the module's
// sanctioned way to spawn goroutines in the measurement packages, which
// start no raw go statements.
func Each(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		// Serial fast path: no goroutines for single shards or
		// single-core runtimes.
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Map runs fn(0), ..., fn(n-1) on at most workers goroutines and returns
// the results in index order. workers <= 0 means runtime.GOMAXPROCS(0).
// Every fn call runs to completion even when another index fails; the
// error for the lowest failing index is returned (deterministically, so a
// sweep reports the same failure regardless of scheduling), with nil
// results.
func Map[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	if workers == 1 {
		// Serial fast path: no goroutines to spawn for tiny sweeps or
		// single-core runtimes.
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	errs := make([]error, n)
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				out[i], errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
