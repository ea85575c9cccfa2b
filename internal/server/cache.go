package server

import (
	"context"
	"sync"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// Key identifies one network instance. For nucleus-only families the
// request decoder canonicalizes L to 1, so "star with l=3" and "star with
// l=1" share one cache line.
type Key = topology.Instance

// storeKey maps the cache key to its persistent-store address. The request
// decoder has already canonicalized L for nucleus-only families, so the
// mapping is direct.
func storeKey(k Key) store.Key {
	return store.Key{Family: k.Family.String(), L: k.L, N: k.N}
}

// cacheKind separates the two value classes sharing the LRU: materialized
// topologies (cheap: the generator set as explicit permutations) and exact
// BFS profiles (expensive: a k!-entry rank-indexed distance table).
type cacheKind uint8

const (
	kindNetwork cacheKind = iota
	kindProfile
)

type cacheKey struct {
	kind cacheKind
	key  Key
}

// entry is one resident value on the LRU ring (most recent next to head).
type entry struct {
	ck         cacheKey
	val        any
	bytes      int64
	prev, next *entry
}

// flight is one in-progress build that concurrent misses coalesce onto.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// CacheStats is the /statsz cache slice. Hits are answered from residency;
// every Miss triggers exactly one Build; Coalesced counts requests that
// waited on another request's build instead of starting their own.
type CacheStats struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Builds      int64 `json:"builds"`
	Coalesced   int64 `json:"coalesced"`
	Evictions   int64 `json:"evictions"`
	Oversize    int64 `json:"oversize"`
	Entries     int   `json:"entries"`
	BytesUsed   int64 `json:"bytes_used"`
	BytesBudget int64 `json:"bytes_budget"`
}

// Cache is a byte-budgeted LRU of materialized topologies and exact-profile
// distance tables, keyed by (family, l, n), with singleflight request
// coalescing: N concurrent misses on one key trigger exactly one build, the
// N-1 others block (honoring their contexts) until it lands. Builds run on
// the caller's goroutine — the cache spawns nothing.
type Cache struct {
	budget int64
	// store, when non-nil, is the persistent content-addressed profile
	// store: profile builds consult it before running BFS, and the job
	// that built a profile writes it back (writeBack, called by Jobs once
	// the job is done). The cache ignores store failures beyond their
	// counters — persistence is an accelerator, never a correctness
	// dependency.
	store *store.Store

	mu      sync.Mutex
	entries map[cacheKey]*entry
	flights map[cacheKey]*flight
	// head/tail delimit the LRU ring: head.next is most recent, tail.prev
	// least recent. Sentinels avoid nil checks on every splice.
	head, tail *entry
	used       int64
	stats      CacheStats
}

// NewCache returns a cache that keeps at most budgetBytes of materialized
// state resident (estimated; a value larger than the whole budget is served
// but never cached).
func NewCache(budgetBytes int64) *Cache {
	if budgetBytes < 1 {
		budgetBytes = 1
	}
	c := &Cache{
		budget:  budgetBytes,
		entries: make(map[cacheKey]*entry),
		flights: make(map[cacheKey]*flight),
		head:    &entry{},
		tail:    &entry{},
	}
	c.head.next = c.tail
	c.tail.prev = c.head
	return c
}

// SetStore attaches the persistent profile store. Call before serving.
func (c *Cache) SetStore(st *store.Store) { c.store = st }

// Network returns the materialized network for key, building it at most
// once no matter how many requests race on a cold key.
func (c *Cache) Network(ctx context.Context, key Key) (*topology.Network, error) {
	nw, _, err := c.network(ctx, key)
	return nw, err
}

// network is Network that also reports whether this call's build read the
// store for key's profile. A hit side-inserts the profile; after a miss,
// the same call's profile build does not read the store again.
func (c *Cache) network(ctx context.Context, key Key) (nw *topology.Network, probed bool, err error) {
	// tr marks the build phase only when this caller loses the singleflight
	// race into an actual build; a warm hit stays inside the handler's
	// "cache" span.
	tr := telemetry.TraceFrom(ctx)
	v, err := c.getOrBuild(ctx, cacheKey{kindNetwork, key}, func() (any, int64, error) {
		// A cold network is the restart signature, so this is where the
		// persistent store pays off: one sequential read hands back the
		// whole exact profile, which is side-inserted so the very first
		// request observes exact distances without any BFS — the trace
		// shows a store-load phase and no build phase.
		if c.store != nil && !c.hasProfile(key) {
			probed = true
			tr.Phase("store-load")
			if e, err := c.store.Load(storeKey(key)); err == nil && e.K == key.K() {
				nw, nerr := topology.New(key.Family, key.L, key.N)
				if nerr == nil {
					c.insertProfile(key, e.Profile)
					return nw, networkBytes(nw), nil
				}
			}
		}
		tr.Phase("build-topology")
		nw, err := topology.New(key.Family, key.L, key.N)
		if err != nil {
			return nil, 0, err
		}
		return nw, networkBytes(nw), nil
	})
	if err != nil {
		return nil, probed, err
	}
	return v.(*topology.Network), probed, nil
}

// profile returns the exact BFS profile (diameter, average distance, and
// the rank-indexed distance table) for key, running the k!-state search at
// most once per residency. This is the expensive path — the scgd handlers
// only reach it through the job manager. profile writes nothing to the
// store; the job that built a profile does (Jobs.run). built reports
// whether this call ran the search: it is false for a profile found
// resident, loaded from the store, or built by a caller this one
// coalesced onto. Only a built profile is new to the store.
func (c *Cache) profile(ctx context.Context, key Key) (res *core.BFSResult, built bool, err error) {
	nw, probed, err := c.network(ctx, key)
	if err != nil {
		return nil, false, err
	}
	tr := telemetry.TraceFrom(ctx)
	v, err := c.getOrBuild(ctx, cacheKey{kindProfile, key}, func() (any, int64, error) {
		// Reaching this closure means the profile is cold in memory; the
		// persistent store may still have it (e.g. the LRU evicted it, or
		// the network was already warm when the daemon restarted), unless
		// this call's network build just read it and missed.
		if c.store != nil && !probed {
			tr.Phase("store-load")
			if e, err := c.store.Load(storeKey(key)); err == nil && e.K == key.K() {
				return e.Profile, profileBytes(e.Profile), nil
			}
		}
		tr.Phase("build-profile")
		res, err := nw.Graph().ExactProfile()
		// The BFS engine memoizes the neighbor table's columns on the
		// graph (236 KB for MS(2,4), about 2.7·k!·4 bytes for star-like
		// families); drop them so the LRU's accounting (networkBytes)
		// stays honest for the resident topology.
		nw.Graph().DropNeighborTable()
		if err != nil {
			return nil, 0, err
		}
		built = true
		return res, profileBytes(res), nil
	})
	if err != nil {
		return nil, false, err
	}
	return v.(*core.BFSResult), built, nil
}

// writeBack persists a built profile so the next process skips its BFS
// entirely. A failed write only bumps the store's error counter: the
// profile is already in hand.
func (c *Cache) writeBack(key Key, res *core.BFSResult) {
	sk := storeKey(key)
	_ = c.store.Put(sk, &store.Entry{
		Family: sk.Family, L: sk.L, N: sk.N, K: key.K(), Profile: res,
	})
}

// resident returns the resident materialized network for key and, when
// withProfile is set, its resident exact profile (nil when the profile is
// cold), without building anything; ok is false on a cold network. It is
// the warm fast path of the v1 handlers: one mutex-guarded probe per
// value under one lock, with no closure or interface boxing, so the
// steady-state request allocates nothing here. Each value found counts a
// hit and moves to the LRU front, network first, as two probes in that
// order would.
func (c *Cache) resident(key Key, withProfile bool) (nw *topology.Network, prof *core.BFSResult, ok bool) {
	c.mu.Lock()
	e, ok := c.entries[cacheKey{kindNetwork, key}]
	if !ok {
		c.mu.Unlock()
		return nil, nil, false
	}
	c.touch(e)
	c.stats.Hits++
	nw = e.val.(*topology.Network)
	if withProfile {
		if e, found := c.entries[cacheKey{kindProfile, key}]; found {
			c.touch(e)
			c.stats.Hits++
			prof = e.val.(*core.BFSResult)
		}
	}
	c.mu.Unlock()
	return nw, prof, true
}

// CachedProfile returns the resident exact profile for key without building
// anything; ok is false on a cold key. A profile submit answers from it,
// and a route or metrics request whose network was cold probes it after
// the build (a store load may have brought the profile in with it).
func (c *Cache) CachedProfile(key Key) (*core.BFSResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[cacheKey{kindProfile, key}]
	if !ok {
		return nil, false
	}
	c.touch(e)
	c.stats.Hits++
	return e.val.(*core.BFSResult), true
}

// hasProfile reports whether the exact profile for key is resident,
// without touching LRU order or the hit counter.
func (c *Cache) hasProfile(key Key) bool {
	c.mu.Lock()
	_, ok := c.entries[cacheKey{kindProfile, key}]
	c.mu.Unlock()
	return ok
}

// insertProfile side-inserts a store-loaded profile. It runs from inside
// the network build closure, which getOrBuild executes without c.mu held,
// so taking the lock here is safe. If a concurrent profile flight is in
// progress its completion will simply overwrite this entry with an
// identical value.
func (c *Cache) insertProfile(key Key, res *core.BFSResult) {
	c.mu.Lock()
	c.insert(cacheKey{kindProfile, key}, res, profileBytes(res))
	c.mu.Unlock()
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	s.BytesUsed = c.used
	s.BytesBudget = c.budget
	return s
}

func (c *Cache) getOrBuild(ctx context.Context, ck cacheKey, build func() (any, int64, error)) (any, error) {
	c.mu.Lock()
	if e, ok := c.entries[ck]; ok {
		c.touch(e)
		c.stats.Hits++
		v := e.val
		c.mu.Unlock()
		return v, nil
	}
	if f, ok := c.flights[ck]; ok {
		c.stats.Coalesced++
		c.mu.Unlock()
		telemetry.TraceFrom(ctx).Phase("build-wait")
		select {
		case <-f.done:
			return f.val, f.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	c.flights[ck] = f
	c.stats.Misses++
	c.stats.Builds++
	c.mu.Unlock()

	val, bytes, err := build()

	c.mu.Lock()
	delete(c.flights, ck)
	if err == nil {
		c.insert(ck, val, bytes)
	}
	f.val, f.err = val, err
	close(f.done)
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return val, nil
}

// insert adds a freshly built value and evicts from the cold end until the
// budget holds again. Callers hold c.mu.
func (c *Cache) insert(ck cacheKey, val any, bytes int64) {
	if bytes > c.budget {
		c.stats.Oversize++
		return
	}
	if old, ok := c.entries[ck]; ok {
		// A concurrent eviction-then-rebuild can race an earlier insert;
		// keep the newer value.
		c.unlink(old)
		c.used -= old.bytes
		delete(c.entries, ck)
	}
	e := &entry{ck: ck, val: val, bytes: bytes}
	c.entries[ck] = e
	c.linkFront(e)
	c.used += bytes
	for c.used > c.budget && c.tail.prev != c.head {
		lru := c.tail.prev
		c.unlink(lru)
		delete(c.entries, lru.ck)
		c.used -= lru.bytes
		c.stats.Evictions++
	}
}

func (c *Cache) touch(e *entry) {
	c.unlink(e)
	c.linkFront(e)
}

func (c *Cache) linkFront(e *entry) {
	e.prev = c.head
	e.next = c.head.next
	c.head.next.prev = e
	c.head.next = e
}

func (c *Cache) unlink(e *entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

// networkBytes estimates the resident footprint of a materialized network:
// the generator permutations plus fixed struct overhead.
func networkBytes(nw *topology.Network) int64 {
	k := int64(nw.K())
	degree := int64(nw.Graph().OutDegree())
	return degree*k*8 + 512
}

// profileBytes estimates the resident footprint of an exact profile: the
// rank-indexed distance table dominates (1 byte per state in the compact
// backing, 4 in the wide fallback).
func profileBytes(res *core.BFSResult) int64 {
	return res.Dist.Bytes() + int64(len(res.Histogram))*8 + 256
}
