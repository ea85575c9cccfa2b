package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/perm"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/topology"
)

// runProbes times each layer's public functions directly, with ns timers,
// on the workload's own instances and route pairs. It fills the per-layer
// metrics the workload's traffic cannot give: the null round trip, the
// in-memory handler cost, the solver and verifier, the BFS engines and the
// store's encode, write, read and decode paths. The timed traffic runs no
// profile job, so a traced probe server supplies the job figures.
func runProbes(p *pass, insts []instance, pairs []routeOp, dir string, ps phaseStats, L map[string]float64) error {
	t := p.tr
	step := func(name string, fn func() error) error {
		sp := t.begin("probe "+name, 0, "")
		defer t.end(sp)
		if err := fn(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	lib := map[topology.Instance]*core.BFSResult{}
	if err := step("net", func() error { return probeNull(L) }); err != nil {
		return err
	}
	if err := step("core", func() error { return probeCore(L, lib) }); err != nil {
		return err
	}
	var distBytes int64
	for _, in := range insts {
		res, err := libProfile(lib, in.Instance)
		if err != nil {
			return err
		}
		distBytes += res.Dist.Bytes()
	}
	L["core.dist_bytes"] = float64(distBytes)
	if err := step("topology", func() error { return probeTopology(L, insts, pairs, lib) }); err != nil {
		return err
	}
	if err := step("store", func() error { return probeStore(L, insts, lib, dir) }); err != nil {
		return err
	}
	return step("server", func() error { return probeServer(L, insts[0], p.o.listSeed(), dir, ps) })
}

// libProfile returns the library's exact profile of in, built by a direct
// Graph.ExactProfile once per instance and kept in lib.
func libProfile(lib map[topology.Instance]*core.BFSResult, in topology.Instance) (*core.BFSResult, error) {
	if res, ok := lib[in]; ok {
		return res, nil
	}
	nw, err := topology.New(in.Family, in.L, in.N)
	if err != nil {
		return nil, err
	}
	res, err := nw.Graph().ExactProfile()
	if err != nil {
		return nil, err
	}
	nw.Graph().DropNeighborTable()
	lib[in] = res
	return res, nil
}

// probeNull measures the client, net/http and loopback alone: the same
// client type against a handler that writes a two-byte JSON body.
func probeNull(L map[string]float64) error {
	r, err := newHostRef()
	if err != nil {
		return err
	}
	const warm, n = 500, 5000
	if err := r.block(warm, false); err != nil {
		return err
	}
	h0 := r.g.httpNS
	if err := r.block(n, false); err != nil {
		return err
	}
	L["net.null_roundtrip_us"] = float64(r.g.httpNS-h0) / n / 1e3
	return r.close()
}

// probeCore times Graph.ExactProfile on fresh networks: every k=7 and k=8
// instance (the serial and the bitset engine, the latter with its
// neighbor-table build) and MS(2,4) at k=9, plus the k=8 neighbor-table
// build on its own.
func probeCore(L map[string]float64, lib map[topology.Instance]*core.BFSResult) error {
	k7, err := instancesAtK(7)
	if err != nil {
		return err
	}
	k8, err := instancesAtK(8)
	if err != nil {
		return err
	}
	k9 := []instance{newInstance(topology.Instance{Family: topology.MS, L: 2, N: 4})}
	var states, totalNS float64
	for _, set := range []struct {
		name  string
		insts []instance
	}{{"k7", k7}, {"k8", k8}, {"k9", k9}} {
		var ns float64
		for _, in := range set.insts {
			nw, err := topology.New(in.Family, in.L, in.N)
			if err != nil {
				return err
			}
			t0 := time.Now()
			res, err := nw.Graph().ExactProfile()
			d := float64(time.Since(t0).Nanoseconds())
			if err != nil {
				return err
			}
			nw.Graph().DropNeighborTable()
			lib[in.Instance] = res
			ns += d
			states += float64(nw.Nodes())
		}
		totalNS += ns
		L["core.profile_us."+set.name] = ns / float64(len(set.insts)) / 1e3
	}
	L["core.states_per_s"] = states / (totalNS / 1e9)
	var ns float64
	for _, in := range k8 {
		nw, err := topology.New(in.Family, in.L, in.N)
		if err != nil {
			return err
		}
		t0 := time.Now()
		_, err = nw.Graph().EnsureNeighborTable(0)
		ns += float64(time.Since(t0).Nanoseconds())
		if err != nil {
			return err
		}
		nw.Graph().DropNeighborTable()
	}
	L["core.neighbor_table_us.k8"] = ns / float64(len(k8)) / 1e3
	return nil
}

// probeTopology times RouteScratch.RouteInto and VerifyRouteInto on the
// run's own pairs, and measures route length and stretch against the
// library distance table.
func probeTopology(L map[string]float64, insts []instance, pairs []routeOp, lib map[topology.Instance]*core.BFSResult) error {
	const maxPairs = 5000
	if len(pairs) > maxPairs {
		pairs = pairs[:maxPairs]
	}
	type parsed struct {
		nw       *topology.Network
		dist     core.DistTable
		src, dst perm.Perm
	}
	nws := map[int]*topology.Network{}
	var in []parsed
	for _, op := range pairs {
		nw, ok := nws[op.inst]
		if !ok {
			var err error
			it := insts[op.inst]
			if nw, err = topology.New(it.Family, it.L, it.N); err != nil {
				return err
			}
			nws[op.inst] = nw
		}
		src, err := perm.Parse(op.src)
		if err != nil {
			return err
		}
		dst, err := perm.Parse(op.dst)
		if err != nil {
			return err
		}
		res, err := libProfile(lib, insts[op.inst].Instance)
		if err != nil {
			return err
		}
		in = append(in, parsed{nw, res.Dist, src, dst})
	}
	sc := topology.NewRouteScratch()
	var routeNS, verifyNS, hops, stretch float64
	var nStretch int
	for pass := 0; pass < 2; pass++ { // the first pass warms the scratch
		for _, x := range in {
			t0 := time.Now()
			moves, err := sc.RouteInto(x.nw, x.src, x.dst)
			t1 := time.Now()
			if err != nil {
				return err
			}
			if err := sc.VerifyRouteInto(x.nw, x.src, x.dst, moves); err != nil {
				return err
			}
			t2 := time.Now()
			if pass == 0 {
				continue
			}
			routeNS += float64(t1.Sub(t0).Nanoseconds())
			verifyNS += float64(t2.Sub(t1).Nanoseconds())
			hops += float64(len(moves))
			if d := x.dist.At(x.src.Inverse().Compose(x.dst).Rank()); d > 0 {
				stretch += float64(len(moves)) / float64(d)
				nStretch++
			}
		}
	}
	n := float64(len(in))
	L["topology.route_us"] = routeNS / n / 1e3
	L["topology.verify_us"] = verifyNS / n / 1e3
	L["topology.hops_mean"] = hops / n
	L["topology.stretch_mean"] = stretch / float64(nStretch)
	return nil
}

// probeStore times the store's write path (AppendEntry, then Put with its
// fsync) and read path (Load, and DecodeEntry on bytes already in memory)
// on the workload's own profiles. The I/O share is the call minus its
// codec.
func probeStore(L map[string]float64, insts []instance, lib map[topology.Instance]*core.BFSResult, dir string) error {
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		return err
	}
	reps := (24 + len(insts) - 1) / len(insts)
	var encNS, putNS, loadNS, decNS float64
	for r := 0; r < reps; r++ {
		for _, in := range insts {
			key := store.Key{Family: in.Family.String(), L: in.L, N: in.N}
			e := &store.Entry{Family: key.Family, L: in.L, N: in.N, K: in.K(), Profile: lib[in.Instance]}
			t0 := time.Now()
			if _, err := store.AppendEntry(nil, e); err != nil {
				return err
			}
			t1 := time.Now()
			if err := st.Put(key, e); err != nil {
				return err
			}
			t2 := time.Now()
			if _, err := st.Load(key); err != nil {
				return err
			}
			t3 := time.Now()
			data, err := os.ReadFile(st.EntryPath(key))
			if err != nil {
				return err
			}
			t4 := time.Now()
			if _, err := store.DecodeEntry(data); err != nil {
				return err
			}
			decNS += float64(time.Since(t4).Nanoseconds())
			encNS += float64(t1.Sub(t0).Nanoseconds())
			putNS += float64(t2.Sub(t1).Nanoseconds())
			loadNS += float64(t3.Sub(t2).Nanoseconds())
		}
	}
	n := float64(reps * len(insts) * 1e3)
	L["store.encode_us"] = encNS / n
	L["store.put_us"] = putNS / n
	L["store.write_io_us"] = (putNS - encNS) / n
	L["store.load_us"] = loadNS / n
	L["store.decode_us"] = decNS / n
	L["store.read_io_us"] = (loadNS - decNS) / n
	return os.RemoveAll(st.Dir())
}

// probeServer measures scgd without the network: Handler().ServeHTTP per
// endpoint on a resident instance, in scgd's default configuration, with
// the allocations each call makes; and server.New itself.
func probeServer(L map[string]float64, in instance, seed uint64, dir string, ps phaseStats) error {
	s := server.New(server.Config{SampleInterval: -1})
	defer s.Close()
	h := s.Handler()
	if err := residentProfile(h, in); err != nil {
		return err
	}
	r := rng(seed, streamProbe)
	var routes, neighbors []*http.Request
	for i := 0; i < 256; i++ {
		op := newRouteOp([]instance{in}, 0, r)
		routes = append(routes, httptest.NewRequest(http.MethodGet, op.path, nil))
		node := perm.Random(in.K(), r).String()
		neighbors = append(neighbors, httptest.NewRequest(http.MethodGet, "/v1/neighbors?"+in.query+"&node="+node, nil))
	}
	for _, ep := range []struct {
		name string
		reqs []*http.Request
	}{
		{"route", routes},
		{"metrics", []*http.Request{httptest.NewRequest(http.MethodGet, "/v1/metrics?"+in.query, nil)}},
		{"neighbors", neighbors},
		{"profile", []*http.Request{httptest.NewRequest(http.MethodGet, "/v1/profile?"+in.query, nil)}},
	} {
		us, allocs, err := measureHandler(h, ep.reqs, 4000)
		if err != nil {
			return fmt.Errorf("%s: %w", ep.name, err)
		}
		L["server.handler_us."+ep.name] = us
		L["server.handler_allocs."+ep.name] = allocs
	}
	// The middleware is what ServeHTTP adds to the route handler alone,
	// pair by pair: each target goes through ServeHTTP timed the way
	// server.MeasureRouteHot times the handler on it, so the two figures
	// differ only in the middleware.
	const targets, iters = 64, 64
	var middlewareNS float64
	for _, r := range routes[:targets] {
		full, err := measureRepeated(h, r, iters)
		if err != nil {
			return err
		}
		handler, _, err := server.MeasureRouteHot(s, r.URL.RequestURI(), iters)
		if err != nil {
			return err
		}
		middlewareNS += full - handler
	}
	L["server.middleware_us"] = middlewareNS / targets / 1e3

	st, err := store.Open(filepath.Join(dir, "new"))
	if err != nil {
		return err
	}
	const news = 200
	var newNS float64
	for i := 0; i < news; i++ {
		t0 := time.Now()
		s := server.New(server.Config{SampleInterval: -1, Store: st})
		newNS += float64(time.Since(t0).Nanoseconds())
		s.Close()
	}
	L["server.new_us"] = newNS / news / 1e3

	if ps.routes == 0 || ps.jobs == 0 {
		fb, err := tracedProbe(in, routes)
		if err != nil {
			return err
		}
		if ps.routes == 0 {
			ps.routes, ps.phaseUS = fb.routes, fb.phaseUS
		}
		if ps.jobs == 0 {
			ps.jobs, ps.queueUS, ps.runUS = fb.jobs, fb.queueUS, fb.runUS
		}
	}
	for _, ph := range routePhases {
		L["server.phase."+ph+"_us"] = ps.meanPhase(ph)
	}
	L["jobs.queue_wait_us"] = ps.queueUS / float64(ps.jobs)
	L["jobs.run_us"] = ps.runUS / float64(ps.jobs)
	return nil
}

// tracedProbe runs one profile job and the route requests in memory
// against scgd with the slow log at threshold 0, for the phase and job
// figures of a workload whose own traffic lacks them.
func tracedProbe(in instance, routes []*http.Request) (phaseStats, error) {
	buf := &lockedBuffer{}
	s := server.New(server.Config{SampleInterval: -1, SlowLog: buf, SlowThreshold: 0})
	h := s.Handler()
	if err := residentProfile(h, in); err != nil {
		s.Close()
		return phaseStats{}, err
	}
	before := bytes.Count(buf.bytes(), []byte("\n"))
	w := &nullWriter{h: http.Header{}}
	for i := 0; i < 1000; i++ {
		h.ServeHTTP(w, routes[i%len(routes)])
	}
	s.Close()
	recs, err := parseSlowLog(buf.bytes())
	if err != nil {
		return phaseStats{}, err
	}
	return joinSlowLog(recs, nil, before), nil
}

// residentProfile submits the instance's profile job in memory and waits
// for it, so the instance's distance table is resident.
func residentProfile(h http.Handler, in instance) error {
	target := "/v1/profile?" + in.query
	for start := time.Now(); time.Since(start) < time.Minute; {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		var resp server.ProfileResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			return fmt.Errorf("profile %s: status %d: %w", in.name, rec.Code, err)
		}
		switch resp.Status {
		case string(server.JobDone):
			return nil
		case string(server.JobFailed):
			return fmt.Errorf("profile %s: %s", in.name, resp.Error)
		}
		target = "/v1/profile?id=" + resp.JobID
		time.Sleep(200 * time.Microsecond)
	}
	return fmt.Errorf("profile %s: not done after a minute", in.name)
}

// measureHandler times n in-memory ServeHTTP calls cycling over reqs and
// counts heap allocations per call.
func measureHandler(h http.Handler, reqs []*http.Request, n int) (us, allocs float64, err error) {
	w := &nullWriter{h: http.Header{}}
	for i := 0; i < 256; i++ {
		h.ServeHTTP(w, reqs[i%len(reqs)])
		if w.status != http.StatusOK {
			return 0, 0, fmt.Errorf("%s: status %d", reqs[i%len(reqs)].URL, w.status)
		}
	}
	runtime.GC()
	m0 := readRuntime()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		h.ServeHTTP(w, reqs[i%len(reqs)])
	}
	d := time.Since(t0)
	m1 := readRuntime()
	return float64(d.Nanoseconds()) / float64(n) / 1e3, float64(m1.Mallocs-m0.Mallocs) / float64(n), nil
}

// measureRepeated times ServeHTTP on one request the way
// server.MeasureRouteHot times the route handler: 64 warm-up calls, a GC, a
// short re-warm, then iters timed calls.
func measureRepeated(h http.Handler, r *http.Request, iters int) (float64, error) {
	w := &nullWriter{h: http.Header{}}
	for i := 0; i < 64; i++ {
		h.ServeHTTP(w, r)
		if w.status != http.StatusOK {
			return 0, fmt.Errorf("%s: status %d", r.URL, w.status)
		}
	}
	runtime.GC()
	for i := 0; i < 8; i++ {
		h.ServeHTTP(w, r)
	}
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		h.ServeHTTP(w, r)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(iters), nil
}

// nullWriter is an in-memory ResponseWriter whose header map persists
// across calls, as on a keep-alive connection, and whose body is dropped.
type nullWriter struct {
	h      http.Header
	status int
}

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) WriteHeader(status int)      { w.status = status }
func (w *nullWriter) Write(b []byte) (int, error) { return len(b), nil }
