package server

import (
	"context"
	"net/http"
	"testing"

	"repro/internal/pool"
	"repro/internal/topology"
)

func msKey(l, n int) Key { return Key{Family: topology.MS, L: l, N: n} }

// TestCacheCoalescing is the acceptance check for singleflight: 64 concurrent
// requests for one cold key must trigger exactly one build, with the other 63
// either coalescing onto the in-flight build or hitting the fresh entry.
func TestCacheCoalescing(t *testing.T) {
	c := NewCache(64 << 20)
	key := msKey(2, 3)
	const callers = 64
	got, err := pool.Map(callers, callers, func(int) (*topology.Network, error) {
		return c.Network(context.Background(), key)
	})
	if err != nil {
		t.Fatalf("Network: %v", err)
	}
	for i, nw := range got {
		if nw != got[0] {
			t.Fatalf("caller %d got a distinct network pointer; want one shared build", i)
		}
	}
	st := c.Stats()
	if st.Builds != 1 || st.Misses != 1 {
		t.Fatalf("Builds=%d Misses=%d, want exactly 1 each", st.Builds, st.Misses)
	}
	if st.Hits+st.Coalesced != callers-1 {
		t.Fatalf("Hits=%d Coalesced=%d, want them to sum to %d", st.Hits, st.Coalesced, callers-1)
	}
}

func TestCacheHitReturnsSameValue(t *testing.T) {
	c := NewCache(64 << 20)
	key := msKey(2, 3)
	a, err := c.Network(context.Background(), key)
	if err != nil {
		t.Fatalf("first Network: %v", err)
	}
	b, err := c.Network(context.Background(), key)
	if err != nil {
		t.Fatalf("second Network: %v", err)
	}
	if a != b {
		t.Fatal("second lookup rebuilt the network instead of hitting the cache")
	}
	if st := c.Stats(); st.Hits != 1 || st.Builds != 1 {
		t.Fatalf("Hits=%d Builds=%d, want 1 and 1", st.Hits, st.Builds)
	}
}

func TestCacheBuildErrorNotCached(t *testing.T) {
	c := NewCache(64 << 20)
	bad := Key{Family: topology.MS, L: 0, N: 0}
	if _, err := c.Network(context.Background(), bad); err == nil {
		t.Fatal("want an error for an invalid instance")
	}
	st := c.Stats()
	if st.Entries != 0 {
		t.Fatalf("failed build left %d entries resident", st.Entries)
	}
	// The failure must not poison the key: a second call tries again.
	if _, err := c.Network(context.Background(), bad); err == nil {
		t.Fatal("want the same error on retry")
	}
	if st := c.Stats(); st.Builds != 2 {
		t.Fatalf("Builds=%d, want 2 (errors are not cached)", st.Builds)
	}
}

func TestCacheEviction(t *testing.T) {
	// Budget fits one network (networkBytes >= 512) but not two.
	c := NewCache(700)
	if _, err := c.Network(context.Background(), msKey(2, 1)); err != nil {
		t.Fatalf("first Network: %v", err)
	}
	if _, err := c.Network(context.Background(), msKey(2, 2)); err != nil {
		t.Fatalf("second Network: %v", err)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("stats %+v: want at least one eviction under a one-entry budget", st)
	}
	if st.BytesUsed > st.BytesBudget {
		t.Fatalf("resident bytes %d exceed budget %d", st.BytesUsed, st.BytesBudget)
	}
	// The evicted key rebuilds on demand.
	if _, err := c.Network(context.Background(), msKey(2, 1)); err != nil {
		t.Fatalf("rebuild after eviction: %v", err)
	}
}

func TestCacheOversizeServedNotCached(t *testing.T) {
	c := NewCache(1)
	if _, err := c.Network(context.Background(), msKey(2, 1)); err != nil {
		t.Fatalf("Network: %v", err)
	}
	st := c.Stats()
	if st.Oversize != 1 || st.Entries != 0 {
		t.Fatalf("Oversize=%d Entries=%d, want 1 and 0: oversize values are served but never resident", st.Oversize, st.Entries)
	}
}

func TestCacheProfileMatchesDirectBFS(t *testing.T) {
	c := NewCache(64 << 20)
	key := msKey(2, 1) // k=3: 6 states, instant
	prof, _, err := c.profile(context.Background(), key)
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	nw, err := topology.New(key.Family, key.L, key.N)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	want, err := nw.Graph().ExactProfile()
	if err != nil {
		t.Fatalf("ExactProfile: %v", err)
	}
	if prof.Eccentricity != want.Eccentricity || prof.Reachable != want.Reachable {
		t.Fatalf("cached profile (diam=%d, reach=%d) != direct BFS (diam=%d, reach=%d)",
			prof.Eccentricity, prof.Reachable, want.Eccentricity, want.Reachable)
	}
	if _, ok := c.CachedProfile(key); !ok {
		t.Fatal("CachedProfile misses right after Profile built the table")
	}
	if _, ok := c.CachedProfile(msKey(2, 2)); ok {
		t.Fatal("CachedProfile claims a hit on a never-built key")
	}
}

func TestCacheContextCancelUnblocksCoalescedWaiter(t *testing.T) {
	c := NewCache(64 << 20)
	key := msKey(2, 3)
	// Fake an in-flight build so a waiter must coalesce, then cancel it.
	ck := cacheKey{kindNetwork, key}
	c.mu.Lock()
	c.flights[ck] = &flight{done: make(chan struct{})}
	c.mu.Unlock()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Network(ctx, key); err == nil {
		t.Fatal("want a context error when the awaited build never lands")
	}
}

// TestWarmRequestCacheTouches pins what each warm v1 request does to the
// cache, now that one probe under one lock reads the network and its
// profile: the hits and LRU order two separate probes gave. A route or
// metrics request counts a hit on the network and one on the resident
// profile, and leaves the profile most recent; a neighbors request, and a
// route refused for its labels, touch only the network.
func TestWarmRequestCacheTouches(t *testing.T) {
	s := newTestServer()
	defer s.Close()
	if code := do(t, s, http.MethodGet, "/v1/profile?family=MS&l=2&n=3", "", nil); code != http.StatusOK {
		t.Fatalf("profile submit = %d", code)
	}
	front := func() cacheKey {
		s.cache.mu.Lock()
		defer s.cache.mu.Unlock()
		return s.cache.head.next.ck
	}
	const neighbors = "/v1/neighbors?family=MS&l=2&n=3&node=2314567"
	for _, tc := range []struct {
		target string
		status int
		hits   int64
		front  cacheKind
	}{
		{neighbors, http.StatusOK, 1, kindNetwork},
		{"/v1/route?family=MS&l=2&n=3&src=2314567&dst=7654321", http.StatusOK, 2, kindProfile},
		{neighbors, http.StatusOK, 1, kindNetwork},
		{"/v1/metrics?family=MS&l=2&n=3", http.StatusOK, 2, kindProfile},
		{neighbors, http.StatusOK, 1, kindNetwork},
		{"/v1/route?family=MS&l=2&n=3&src=12&dst=7654321", http.StatusBadRequest, 1, kindNetwork},
		{"/v1/route?family=MS&l=2&n=3&src=2314567&dst=1", http.StatusBadRequest, 1, kindNetwork},
	} {
		before := s.cache.Stats().Hits
		if code := do(t, s, http.MethodGet, tc.target, "", nil); code != tc.status {
			t.Fatalf("%s = %d, want %d", tc.target, code, tc.status)
		}
		if got := s.cache.Stats().Hits - before; got != tc.hits {
			t.Errorf("%s: %d cache hits, want %d", tc.target, got, tc.hits)
		}
		if got, want := front(), (cacheKey{tc.front, msKey(2, 3)}); got != want {
			t.Errorf("%s: most recent entry %+v, want %+v", tc.target, got, want)
		}
	}
}
