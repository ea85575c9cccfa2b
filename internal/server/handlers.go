package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/perm"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// maxRouteBody bounds a POST /v1/route body; anything larger is a client
// error, not a reason to buffer.
const maxRouteBody = 1 << 20

// parseKey decodes and validates the (family, l, n) triple shared by every
// v1 endpoint. Nucleus-only families canonicalize l to 1 so all spellings
// of one instance share a cache line.
func (s *Server) parseKey(family, lStr, nStr string) (Key, error) {
	fam, err := topology.ParseFamily(family)
	if err != nil {
		return Key{}, fmt.Errorf("unknown family %q", family)
	}
	l, err := atoiParam("l", lStr)
	if err != nil {
		return Key{}, err
	}
	n, err := atoiParam("n", nStr)
	if err != nil {
		return Key{}, err
	}
	return s.validateKey(fam, l, n)
}

// atoiParam decodes an integer query parameter; absent or empty is 0.
func atoiParam(name, raw string) (int, error) {
	if raw == "" {
		return 0, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", name, raw)
	}
	return v, nil
}

func (s *Server) validateKey(fam topology.Family, l, n int) (Key, error) {
	if l < 0 || n < 0 || l > maxRepresentableK || n > maxRepresentableK {
		return Key{}, fmt.Errorf("parameters out of range: l=%d n=%d (need 0 <= l,n <= %d)", l, n, maxRepresentableK)
	}
	key := Key{Family: fam, L: l, N: n}
	if !fam.IsSuperCayley() {
		key.L = 1
	}
	if k := key.K(); k > s.cfg.MaxK {
		return Key{}, fmt.Errorf("instance too large: k=%d exceeds the server cap %d", k, s.cfg.MaxK)
	}
	return key, nil
}

// network resolves key for a handler: its network and, when withProfile
// is set, its resident exact profile (nil when there is none; a request
// never builds one). A resident network answers at once, with both values
// read under one cache lock and no context work. A cold key builds, or
// waits on another request's build, under a context derived from the
// request's own: it carries the request deadline and the trace, so the
// cache marks its build-topology, build-wait and store-load phases, and a
// wait past the deadline ends the request. So does a client that hangs up:
// on one of Run's connections the wait starts the connection's hang-up
// watch, the only place anything does. The profile is probed after a cold
// build, which may have loaded it from the store. Failures are classified:
// parameter errors are the client's (400), expired deadlines are overload
// (504).
func (s *Server) network(w http.ResponseWriter, r *http.Request, c call, key Key, withProfile bool) (*topology.Network, *core.BFSResult, int, error) {
	if nw, prof, ok := s.cache.resident(key, withProfile); ok {
		return nw, prof, http.StatusOK, nil
	}
	nw, status, err := s.coldNetwork(w, r, c, key)
	if err != nil || !withProfile {
		return nw, nil, status, err
	}
	prof, _ := s.cache.CachedProfile(key)
	return nw, prof, status, nil
}

// coldNetwork is network's build-or-wait half. It is a function of its
// own so that the warm path's frame carries none of its defers: a warm
// MS(2,4) route through the middleware (server.MeasureServe, one P on a
// 2-vCPU KVM guest) took 1,055 ns against 1,087 with them inline, the
// medians of 12 alternating runs.
func (s *Server) coldNetwork(w http.ResponseWriter, r *http.Request, c call, key Key) (*topology.Network, int, error) {
	ctx, cancel := context.WithDeadline(r.Context(), c.deadline)
	defer cancel()
	if rw, ok := w.(*response); ok {
		defer rw.c.watchHangup(cancel)()
	}
	nw, err := s.cache.Network(telemetry.WithTrace(ctx, c.tr), key)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			return nil, http.StatusGatewayTimeout, err
		}
		return nil, http.StatusBadRequest, err
	}
	return nw, http.StatusOK, nil
}

// parseNode decodes a node label and checks it against the instance's k.
func parseNode(what, raw string, k int) (perm.Perm, error) {
	if raw == "" {
		return nil, fmt.Errorf("missing %s node", what)
	}
	p, err := perm.Parse(raw)
	if err != nil {
		return nil, fmt.Errorf("bad %s node: %v", what, err)
	}
	if len(p) != k {
		return nil, fmt.Errorf("%s node has %d symbols, instance wants %d", what, len(p), k)
	}
	return p, nil
}

// decodeRouteRequest accepts GET query parameters or a POST JSON body. The
// POST decode lives in its own function so json.Decoder's &req escape cannot
// force the GET path's request struct onto the heap.
func decodeRouteRequest(w http.ResponseWriter, r *http.Request) (RouteRequest, error) {
	switch r.Method {
	case http.MethodGet:
		q := parseQuery(r.URL.RawQuery)
		req := RouteRequest{Family: q.family, Src: q.src, Dst: q.dst}
		var err error
		if req.L, err = atoiParam("l", q.l); err != nil {
			return req, err
		}
		if req.N, err = atoiParam("n", q.n); err != nil {
			return req, err
		}
		return req, nil
	case http.MethodPost:
		return decodeRoutePost(w, r)
	default:
		return RouteRequest{}, fmt.Errorf("method %s not allowed", r.Method)
	}
}

func decodeRoutePost(w http.ResponseWriter, r *http.Request) (RouteRequest, error) {
	var req RouteRequest
	r.Body = http.MaxBytesReader(w, r.Body, maxRouteBody)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return req, fmt.Errorf("bad JSON body: %v", err)
	}
	return req, nil
}

func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request, c call) int {
	// The span timeline follows the pipeline: decode -> cache (-> build-*
	// inside the cache on a miss) -> solve -> verify -> encode. tr is nil
	// without a slow log; every Phase call then no-ops.
	tr := c.tr
	tr.Phase("decode")
	req, err := decodeRouteRequest(w, r)
	if err != nil {
		if r.Method != http.MethodGet && r.Method != http.MethodPost {
			return writeErr(w, http.StatusMethodNotAllowed, err.Error())
		}
		return writeErr(w, http.StatusBadRequest, err.Error())
	}
	key, err := s.validateRouteKey(req)
	if err != nil {
		return writeErr(w, http.StatusBadRequest, err.Error())
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	// The labels parse against the key's k, which is its network's. Their
	// errors wait for the network, whose own error answers first.
	src, srcErr := parseNodeInto("src", req.Src, key.K(), &sc.src)
	dst, dstErr := parseNodeInto("dst", req.Dst, key.K(), &sc.dst)
	tr.Phase("cache")
	// The resident profile, if a completed profile job left one, gives the
	// answer its exact distance (a route request never builds one). A
	// request refused for its labels does not touch it.
	nw, prof, status, err := s.network(w, r, c, key, srcErr == nil && dstErr == nil)
	if err != nil {
		return writeErr(w, status, err.Error())
	}
	if srcErr != nil {
		return writeErr(w, http.StatusBadRequest, srcErr.Error())
	}
	if dstErr != nil {
		return writeErr(w, http.StatusBadRequest, dstErr.Error())
	}
	// The exact distance is read before the game is played: the load from
	// the distance table (363 KB at k = 9) mostly misses the cache, and
	// nothing waits on it until the answer is encoded, so the miss
	// overlaps the solve.
	d := int32(-1)
	if prof != nil {
		d = routeDistance(prof, src, dst)
	}
	tr.Phase("solve")
	moves, err := sc.topo.RouteInto(nw, src, dst)
	if err != nil {
		return writeErr(w, http.StatusInternalServerError, "routing failed: "+err.Error())
	}
	tr.Phase("verify")
	if err := sc.topo.VerifyRouteInto(nw, src, dst, moves); err != nil {
		return writeErr(w, http.StatusInternalServerError, "route verification failed: "+err.Error())
	}
	tr.Phase("encode")
	exact, stretch := 0, 0.0
	hasExact, hasStretch := false, false
	if d >= 0 {
		exact, hasExact = int(d), true
		if exact > 0 {
			stretch, hasStretch = float64(len(moves))/float64(exact), true
		}
	}
	sc.buf = appendRouteResponse(sc.buf[:0], nw, src, dst, sc.topo.VerifiedNames(), exact, hasExact, stretch, hasStretch)
	return writeBody(w, http.StatusOK, sc.buf)
}

// routeDistance looks up the exact distance from src to dst in a resident
// BFS profile. By vertex-transitivity dist(src, dst) = dist(identity, u)
// for u = (dst⁻¹ ∘ src)⁻¹ = src⁻¹ ∘ dst, so one inverse loop, one compose
// loop, and a popcount rank replace the three allocating perm calls the
// naive spelling would make on every warm route request.
//
//scglint:hotpath warm-route exact-distance overlay: two index loops + one popcount rank per request on the server's hottest endpoint
func routeDistance(prof *core.BFSResult, src, dst perm.Perm) int32 {
	k := len(src)
	var sinvBuf, uBuf [perm.MaxRankK]int
	sinv := sinvBuf[:k]
	for i, v := range src {
		sinv[v-1] = i + 1
	}
	u := uBuf[:k]
	for i, di := range dst {
		u[i] = sinv[di-1]
	}
	return prof.Dist.At(perm.Perm(u).Rank())
}

// validateRouteKey is the RouteRequest front of parseKey.
func (s *Server) validateRouteKey(req RouteRequest) (Key, error) {
	fam, err := topology.ParseFamily(req.Family)
	if err != nil {
		return Key{}, fmt.Errorf("unknown family %q", req.Family)
	}
	return s.validateKey(fam, req.L, req.N)
}

func (s *Server) handleNeighbors(w http.ResponseWriter, r *http.Request, c call) int {
	if r.Method != http.MethodGet {
		return writeErr(w, http.StatusMethodNotAllowed, "use GET")
	}
	q := parseQuery(r.URL.RawQuery)
	key, err := s.parseKey(q.family, q.l, q.n)
	if err != nil {
		return writeErr(w, http.StatusBadRequest, err.Error())
	}
	nw, _, status, err := s.network(w, r, c, key, false)
	if err != nil {
		return writeErr(w, status, err.Error())
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	node, err := parseNodeInto("node", q.node, nw.K(), &sc.src)
	if err != nil {
		return writeErr(w, http.StatusBadRequest, err.Error())
	}
	sc.buf = appendNeighborsResponse(sc.buf[:0], nw, node, growPerm(&sc.dst, nw.K()))
	return writeBody(w, http.StatusOK, sc.buf)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request, c call) int {
	if r.Method != http.MethodGet {
		return writeErr(w, http.StatusMethodNotAllowed, "use GET")
	}
	q := parseQuery(r.URL.RawQuery)
	key, err := s.parseKey(q.family, q.l, q.n)
	if err != nil {
		return writeErr(w, http.StatusBadRequest, err.Error())
	}
	nw, prof, status, err := s.network(w, r, c, key, true)
	if err != nil {
		return writeErr(w, status, err.Error())
	}
	bound := nw.DiameterUpperBound()
	resp := MetricsResponse{
		Network:            nw.Name(),
		Family:             key.Family.String(),
		L:                  nw.L(),
		N:                  nw.N(),
		K:                  nw.K(),
		Nodes:              nw.Nodes(),
		Degree:             nw.Degree(),
		InterclusterDegree: nw.InterclusterDegree(),
		Undirected:         nw.Undirected(),
		DiameterBound:      bound,
		Cost:               metrics.DegreeDiameterCost(nw.Degree(), bound),
	}
	if pb, ok := topology.PaperDiameterBound(key.Family, nw.L(), nw.N()); ok {
		resp.PaperBound = &pb
	}
	resp.DL = universalDL(nw)
	if resp.DL > 0 {
		resp.AlphaBound = float64(bound) / resp.DL
	}
	if prof != nil {
		d, avg := prof.Eccentricity, prof.Mean
		resp.ExactDiameter = &d
		resp.ExactAvgDistance = &avg
		if resp.DL > 0 {
			ae := float64(d) / resp.DL
			resp.AlphaExact = &ae
		}
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.buf = appendMetricsResponse(sc.buf[:0], &resp)
	return writeBody(w, http.StatusOK, sc.buf)
}

// universalDL is the network's Moore-type diameter lower bound D_L, taken
// in its direction (metrics.LowerBounds, which netprops and the figures
// tables share). Instances too small for the bound report 0.
func universalDL(nw *topology.Network) float64 {
	return metrics.LowerBounds(float64(nw.Nodes()), nw.Degree(), nw.Undirected()).DL
}

func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request, c call) int {
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		return writeErr(w, http.StatusMethodNotAllowed, "use GET or POST")
	}
	q := parseQuery(r.URL.RawQuery)
	var job Job
	status, cached := http.StatusOK, false
	if q.id != "" {
		var err error
		if job, err = s.jobs.Get(q.id); err != nil {
			return writeErr(w, http.StatusNotFound, err.Error())
		}
	} else {
		key, err := s.parseKey(q.family, q.l, q.n)
		if err != nil {
			return writeErr(w, http.StatusBadRequest, err.Error())
		}
		if k := key.K(); k > core.MaxExplicitK {
			return writeErr(w, http.StatusBadRequest,
				fmt.Sprintf("exact profile needs k <= %d (%d! states must be enumerable), got k=%d", core.MaxExplicitK, core.MaxExplicitK, k))
		}
		if job, err = s.jobs.Submit(key, c.id); err != nil {
			if errors.Is(err, ErrJobsBusy) {
				return writeErr(w, http.StatusServiceUnavailable, err.Error())
			}
			return writeErr(w, http.StatusBadRequest, err.Error())
		}
		// A cached profile, or a job small enough to run on this request,
		// answers with its final snapshot; a queued or running one, 202.
		cached = job.cached
		if job.Status == JobQueued || job.Status == JobRunning {
			status = http.StatusAccepted
		}
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.buf = appendProfileResponse(sc.buf[:0], &job, cached)
	return writeBody(w, status, sc.buf)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request, _ call) int {
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
	})
	return http.StatusOK
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request, _ call) int {
	writeJSON(w, http.StatusOK, s.Stats())
	return http.StatusOK
}

// handleMetricsz is the Prometheus scrape endpoint. It renders the same
// instruments /statsz snapshots, in the text exposition format (0.0.4).
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request, _ call) int {
	if r.Method != http.MethodGet {
		return writeErr(w, http.StatusMethodNotAllowed, "use GET")
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// A failed write means the scraper went away; there is nothing to do.
	_ = s.reg.WritePrometheus(w)
	return http.StatusOK
}
