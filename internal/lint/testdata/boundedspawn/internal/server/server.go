// Package server mirrors the scgd engine: a spawn-audited package with no
// tolerated raw goroutine — its serving loop spawns through internal/pool.
package server

import "fixspawn/internal/pool"

func handle(i int) {}

// rawSpawn is an ordinary goroutine; flagged.
func rawSpawn(done chan struct{}) {
	go func() { //lintwant raw go statement in a spawn-audited package
		done <- struct{}{}
	}()
}

// pooled routes fan-out through the audited chokepoint; clean.
func pooled(n int) {
	pool.Each(n, 0, handle)
}
