package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/perm"
	"repro/internal/server"
	"repro/internal/topology"
)

// spec sizes one workload. Every worker process runs an op list of
// workerOps ops, generated from the seed and the worker's index. A run of
// -seconds S issues about opsPerSecond·S ops, so longer runs use more
// workers: more processes, spread over more time, is what averages out the
// speed each process happens to get.
type spec struct {
	name          string
	workerOps     int
	opsPerSecond  int
	tracedWorkers int
	make          func(o options, ops int) (workload, error)
}

var specs = []*spec{
	{
		name:          "route-hot",
		workerOps:     20000,
		opsPerSecond:  30000,
		tracedWorkers: 3,
		make:          newRouteHot,
	},
	{
		name:          "query-mix",
		workerOps:     12000,
		opsPerSecond:  20000,
		tracedWorkers: 3,
		make:          newQueryMix,
	},
}

func lookup(name string) (*spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return nil, false
}

func workloadNames() []string {
	var out []string
	for _, s := range specs {
		out = append(out, s.name)
	}
	return out
}

// timedProcs is GOMAXPROCS in the timed window and in the traced run's
// probes; set-up keeps the default, the CPU count. One closed-loop connection
// on two Ps hands every request and every answer across the two vCPUs, and
// what a cross-vCPU wake-up costs is the host's business: with two Ps the
// workers of one route-hot run spread 20.7% in p50, with one 4.0%.
const timedProcs = 1

// workerCount is the number of worker processes of a run.
func (s *spec) workerCount(o options) int {
	if o.trace {
		return s.tracedWorkers
	}
	return max(s.minWorkers(), (s.opsPerSecond*o.seconds+s.workerOps/2)/s.workerOps)
}

// minWorkers is the fewest workers of an end-to-end run: three, for a
// median, and enough for minRunOps ops.
func (s *spec) minWorkers() int {
	return max(3, (minRunOps+s.workerOps-1)/s.workerOps)
}

// minRunOps is the fewest ops of an end-to-end run: a run of at least
// 1,000 ops has at least ten samples beyond its 99th percentile.
const minRunOps = 1000

// opsPerWorker is the length of a worker's op list.
func (s *spec) opsPerWorker(o options) int {
	if o.ops > 0 {
		return o.ops
	}
	return s.workerOps
}

// listSeed seeds one worker's op list from the run's seed and the worker's
// index. Each worker of a run gets a list of its own, so the medians over a
// run's workers average over as many lists, and a figure that depends on
// the order of the ops does not follow one list's order.
func (o options) listSeed() uint64 {
	return o.seed ^ uint64(o.child+1)*0xbf58476d1ce4e5b9
}

// rng returns an independent stream of the seed for one purpose.
func rng(seed uint64, stream uint64) *perm.RNG {
	return perm.NewRNG(seed*0x9e3779b97f4a7c15 ^ stream<<56)
}

const (
	streamOps = iota + 1
	streamWarm
	streamProbe
	streamPoll
)

// instance is one (family, l, n) network of the benchmark with its query
// string.
type instance struct {
	topology.Instance
	name  string
	query string
}

func newInstance(in topology.Instance) instance {
	return instance{
		Instance: in,
		name:     in.String(),
		query:    fmt.Sprintf("family=%s&l=%d&n=%d", in.Family, in.L, in.N),
	}
}

// instancesAtK lists every instance of every family with label length k,
// in the deterministic family order of topology.AllFamilies.
func instancesAtK(k int) ([]instance, error) {
	var out []instance
	for _, fam := range topology.AllFamilies() {
		ins, err := topology.EnumerateInstances(fam, k)
		if err != nil {
			return nil, err
		}
		for _, in := range ins {
			if in.K() == k {
				out = append(out, newInstance(in))
			}
		}
	}
	return out, nil
}

// routeOp is one generated /v1/route query.
type routeOp struct {
	inst     int
	src, dst string
	path     string
}

func newRouteOp(insts []instance, i int, r *perm.RNG) routeOp {
	k := insts[i].K()
	src, dst := perm.Random(k, r).String(), perm.Random(k, r).String()
	return routeOp{inst: i, src: src, dst: dst, path: "/v1/route?" + insts[i].query + "&src=" + src + "&dst=" + dst}
}

// sampleEvery picks which route answers the parent re-checks against a
// library-built distance table.
const sampleEvery = 64

// checkedRoute runs one route op, checks the answer, and samples it for
// the parent's distance check.
func checkedRoute(p *pass, base string, insts []instance, op routeOp, i int, wantExact bool) (int64, error) {
	status, body, err := p.gen.get(base + op.path)
	lat := p.gen.lastNS
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("route %s: status %d", op.path, status)
	}
	hops, exact, hasExact, err := checkRouteBody(body)
	if err != nil {
		return 0, fmt.Errorf("route %s: %w", op.path, err)
	}
	if wantExact && !hasExact {
		return 0, fmt.Errorf("route %s: no exact_distance with the profile resident", op.path)
	}
	if hasExact && i%sampleEvery == 0 {
		if err := decodeRoute(body, hops); err != nil {
			return 0, fmt.Errorf("route %s: %w", op.path, err)
		}
		p.pairs = append(p.pairs, pairAnswer{Inst: insts[op.inst].Instance, Src: op.src, Dst: op.dst, Exact: exact, Hops: hops})
	}
	return lat, nil
}

// buildProfile submits an exact-profile job and polls it to completion.
func buildProfile(p *pass, base string, in instance) (*server.ProfileResult, int, error) {
	var resp server.ProfileResponse
	status, body, err := p.gen.get(base + "/v1/profile?" + in.query)
	if err != nil {
		return nil, 0, err
	}
	if status != http.StatusAccepted && status != http.StatusOK {
		return nil, 0, fmt.Errorf("profile %s: submit status %d", in.name, status)
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, 0, fmt.Errorf("profile %s: %w", in.name, err)
	}
	timer, err := newPollTimer()
	if err != nil {
		return nil, 0, err
	}
	defer timer.close()
	start := time.Now()
	wait := time.Duration(p.poll.Intn(int(pollEvery/time.Microsecond))) * time.Microsecond
	for resp.Status != string(server.JobDone) {
		if resp.Status == string(server.JobFailed) {
			return nil, 0, fmt.Errorf("profile %s: job failed: %s", in.name, resp.Error)
		}
		if time.Since(start) > jobDeadline {
			return nil, 0, fmt.Errorf("profile %s: job not done after %v", in.name, jobDeadline)
		}
		t0 := time.Now()
		if err := timer.sleep(wait); err != nil {
			return nil, 0, err
		}
		p.sleep += int64(time.Since(t0))
		wait = pollEvery
		body, err := p.gen.getOK(base + "/v1/profile?id=" + resp.JobID)
		if err != nil {
			return nil, 0, err
		}
		p.polls++
		resp = server.ProfileResponse{}
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, 0, fmt.Errorf("profile %s: %w", in.name, err)
		}
	}
	if resp.Result == nil {
		return nil, 0, fmt.Errorf("profile %s: done without a result", in.name)
	}
	return resp.Result, status, checkProfile(in, resp.Result)
}

// jobDeadline is how long a profile job may take before it counts as hung
// and its op as failed. No build here takes a second, and no job writes to
// disk.
const jobDeadline = time.Minute

// The poll schedule: the first poll after a seeded random delay below
// pollEvery, then one every pollEvery. The random first delay dithers the
// polls against the job's end, so an op's latency is its completion time
// plus an offset that averages out over ops, not a step function of it. At
// one poll a millisecond, polling stays a small share of CPU next to the
// BFS workers of set-up's builds. The waits are pollTimer sleeps, exact to
// microseconds.
const pollEvery = time.Millisecond

// checkProfile checks what a profile answer must satisfy on its own: the
// histogram covers all k! nodes, and the diameter matches the closed form
// where one exists.
func checkProfile(in instance, res *server.ProfileResult) error {
	k := in.K()
	var sum int64
	for _, c := range res.Histogram {
		sum += c
	}
	if sum != perm.Factorial(k) || res.Nodes != perm.Factorial(k) {
		return fmt.Errorf("profile %s: histogram sums to %d, nodes %d, want %d", in.name, sum, res.Nodes, perm.Factorial(k))
	}
	if len(res.Histogram) != res.Diameter+1 {
		return fmt.Errorf("profile %s: diameter %d but %d histogram bins", in.name, res.Diameter, len(res.Histogram))
	}
	want := -1
	switch in.Family {
	case topology.Star:
		want = 3 * (k - 1) / 2
	case topology.Rotator, topology.TranspositionNet:
		want = k - 1
	case topology.BubbleSort:
		want = k * (k - 1) / 2
	}
	if want >= 0 && res.Diameter != want {
		return fmt.Errorf("profile %s: diameter %d, closed form gives %d", in.name, res.Diameter, want)
	}
	return nil
}

// ---- route-hot ----

type routeHot struct {
	insts []instance
	ops   []routeOp
	warm  []routeOp
	srv   *running
}

func newRouteHot(o options, n int) (workload, error) {
	w := &routeHot{insts: []instance{newInstance(topology.Instance{Family: topology.MS, L: 2, N: 4})}}
	r, rw := rng(o.listSeed(), streamOps), rng(o.listSeed(), streamWarm)
	for i := 0; i < n; i++ {
		w.ops = append(w.ops, newRouteOp(w.insts, 0, r))
	}
	for i := 0; i < 2000; i++ {
		w.warm = append(w.warm, newRouteOp(w.insts, 0, rw))
	}
	return w, nil
}

func (w *routeHot) setup(p *pass) error {
	srv, err := p.startServer(p.serverConfig(nil))
	if err != nil {
		return err
	}
	w.srv = srv
	if _, _, err := buildProfile(p, srv.base, w.insts[0]); err != nil {
		return err
	}
	for i, op := range w.warm {
		if _, err := checkedRoute(p, srv.base, w.insts, op, i+1, true); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	p.begin(srv.srv)
	return nil
}

func (w *routeHot) layerInputs() ([]instance, []routeOp) { return w.insts, w.ops }

func (w *routeHot) count() int { return len(w.ops) }

func (w *routeHot) op(p *pass, i int) (int64, error) {
	return checkedRoute(p, w.srv.base, w.insts, w.ops[i], i, true)
}

func (w *routeHot) close(p *pass) error {
	p.end(w.srv.srv)
	return stopOneConn(w.srv)
}

// stopOneConn stops a long-lived server and checks the one-connection
// discipline held for its whole life.
func stopOneConn(r *running) error {
	n := r.accepts.count()
	if err := r.stop(); err != nil {
		return err
	}
	if n != 1 {
		return fmt.Errorf("client used %d connections, want 1", n)
	}
	return nil
}

// ---- query-mix ----

type mixKind int

const (
	mixRoute mixKind = iota
	mixMetrics
	mixNeighbors
	mixProfile
)

type mixOp struct {
	kind mixKind
	inst int
	path string
	// route fields, and the expected neighbor labels for neighbors ops.
	route routeOp
	nbrs  []string
}

type queryMix struct {
	insts  []instance
	ops    []mixOp
	warm   []mixOp
	degree []int
	diam   []int
	srv    *running
}

func newQueryMix(o options, n int) (workload, error) {
	insts, err := instancesAtK(7)
	if err != nil {
		return nil, err
	}
	w := &queryMix{insts: insts, degree: make([]int, len(insts)), diam: make([]int, len(insts))}
	nws := make([]*topology.Network, len(insts))
	for i, in := range insts {
		if nws[i], err = topology.New(in.Family, in.L, in.N); err != nil {
			return nil, err
		}
		w.degree[i] = nws[i].Degree()
	}
	// The shares and the uniform spread over instances are assumptions of
	// the benchmark, not taken from a traffic record.
	gen := func(r *perm.RNG) mixOp {
		i := r.Intn(len(insts))
		in := insts[i]
		switch x := r.Intn(100); {
		case x < 70:
			ro := newRouteOp(insts, i, r)
			return mixOp{kind: mixRoute, inst: i, path: ro.path, route: ro}
		case x < 85:
			return mixOp{kind: mixMetrics, inst: i, path: "/v1/metrics?" + in.query}
		case x < 95:
			node := perm.Random(in.K(), r)
			op := mixOp{kind: mixNeighbors, inst: i, path: "/v1/neighbors?" + in.query + "&node=" + node.String()}
			for _, nb := range nws[i].Graph().Neighbors(node) {
				op.nbrs = append(op.nbrs, nb.String())
			}
			return op
		default:
			return mixOp{kind: mixProfile, inst: i, path: "/v1/profile?" + in.query}
		}
	}
	r, rw := rng(o.listSeed(), streamOps), rng(o.listSeed(), streamWarm)
	for i := 0; i < n; i++ {
		w.ops = append(w.ops, gen(r))
	}
	for i := 0; i < 2000; i++ {
		w.warm = append(w.warm, gen(rw))
	}
	return w, nil
}

func (w *queryMix) setup(p *pass) error {
	srv, err := p.startServer(p.serverConfig(nil))
	if err != nil {
		return err
	}
	w.srv = srv
	for i, in := range w.insts {
		res, _, err := buildProfile(p, srv.base, in)
		if err != nil {
			return err
		}
		w.diam[i] = res.Diameter
		p.profs = append(p.profs, profileAnswer{Inst: in.Instance, Diameter: res.Diameter, Histogram: res.Histogram})
	}
	for i, op := range w.warm {
		if _, err := w.do(p, op, i+1); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	p.begin(srv.srv)
	return nil
}

func (w *queryMix) layerInputs() ([]instance, []routeOp) {
	var pairs []routeOp
	for _, op := range w.ops {
		if op.kind == mixRoute {
			pairs = append(pairs, op.route)
		}
	}
	return w.insts, pairs
}

func (w *queryMix) count() int { return len(w.ops) }

func (w *queryMix) op(p *pass, i int) (int64, error) { return w.do(p, w.ops[i], i) }

func (w *queryMix) do(p *pass, op mixOp, i int) (int64, error) {
	if op.kind == mixRoute {
		return checkedRoute(p, w.srv.base, w.insts, op.route, i, true)
	}
	body, err := p.gen.getOK(w.srv.base + op.path)
	lat := p.gen.lastNS
	if err != nil {
		return 0, err
	}
	in := w.insts[op.inst]
	switch op.kind {
	case mixMetrics:
		var m server.MetricsResponse
		if err := json.Unmarshal(body, &m); err != nil {
			return 0, err
		}
		if m.ExactDiameter == nil || *m.ExactDiameter != w.diam[op.inst] {
			return 0, fmt.Errorf("metrics %s: exact diameter %v, resident profile says %d", in.name, m.ExactDiameter, w.diam[op.inst])
		}
		if m.Degree != w.degree[op.inst] || m.Nodes != perm.Factorial(in.K()) {
			return 0, fmt.Errorf("metrics %s: degree %d nodes %d, want %d and %d", in.name, m.Degree, m.Nodes, w.degree[op.inst], perm.Factorial(in.K()))
		}
	case mixNeighbors:
		var nb server.NeighborsResponse
		if err := json.Unmarshal(body, &nb); err != nil {
			return 0, err
		}
		if nb.Degree != w.degree[op.inst] || len(nb.Neighbors) != len(op.nbrs) {
			return 0, fmt.Errorf("neighbors %s: degree %d with %d neighbors, want %d", in.name, nb.Degree, len(nb.Neighbors), w.degree[op.inst])
		}
		for j, x := range nb.Neighbors {
			if x.Node != op.nbrs[j] {
				return 0, fmt.Errorf("neighbors %s: neighbor %d is %s, want %s", in.name, j, x.Node, op.nbrs[j])
			}
		}
	case mixProfile:
		var pr server.ProfileResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			return 0, err
		}
		if pr.Status != string(server.JobDone) || !pr.Cached || pr.Result == nil {
			return 0, fmt.Errorf("profile %s: status %q cached %v, want a done answer from the cache", in.name, pr.Status, pr.Cached)
		}
		if pr.Result.Diameter != w.diam[op.inst] {
			return 0, fmt.Errorf("profile %s: diameter %d, resident profile says %d", in.name, pr.Result.Diameter, w.diam[op.inst])
		}
		if err := checkProfile(in, pr.Result); err != nil {
			return 0, err
		}
	}
	return lat, nil
}

func (w *queryMix) close(p *pass) error {
	p.end(w.srv.srv)
	return stopOneConn(w.srv)
}

// ---- parent-side checks ----

// pairAnswer is a sampled route answer for the parent's distance check.
type pairAnswer struct {
	Inst  topology.Instance `json:"inst"`
	Src   string            `json:"src"`
	Dst   string            `json:"dst"`
	Exact int               `json:"exact"`
	Hops  int               `json:"hops"`
}

// profileAnswer is a profile the server reported, for the parent's check
// against a direct Graph.ExactProfile.
type profileAnswer struct {
	Inst      topology.Instance `json:"inst"`
	Diameter  int               `json:"diameter"`
	Histogram []int64           `json:"histogram"`
}

// verifyRun re-checks the workers' sampled answers against the library,
// once per instance per run and outside every worker's timing: exact
// distances against a library-built distance table, profiles against a
// direct ExactProfile. Each mismatch counts as a failed op.
func (s *spec) verifyRun(o options, workers []*workerResult) ([]string, error) {
	lib := map[topology.Instance]*core.BFSResult{}
	var fails []string
	for _, w := range workers {
		for _, f := range w.Fails {
			fmt.Fprintf(os.Stderr, "scgbench: %s: %s\n", s.name, f)
		}
		for _, a := range w.Pairs {
			res, err := libProfile(lib, a.Inst)
			if err != nil {
				return nil, err
			}
			src, err := perm.Parse(a.Src)
			if err != nil {
				return nil, err
			}
			dst, err := perm.Parse(a.Dst)
			if err != nil {
				return nil, err
			}
			// Right multiplication by generators walks src to dst, so the
			// distance is the identity-rooted distance of src⁻¹∘dst.
			d := int(res.Dist.At(src.Inverse().Compose(dst).Rank()))
			if d != a.Exact || a.Hops < d {
				fails = append(fails, fmt.Sprintf("%v %s->%s: exact_distance %d hops %d, library distance %d", a.Inst, a.Src, a.Dst, a.Exact, a.Hops, d))
			}
		}
		for _, a := range w.Profiles {
			res, err := libProfile(lib, a.Inst)
			if err != nil {
				return nil, err
			}
			if a.Diameter != res.Eccentricity || !slices.Equal(a.Histogram, res.Histogram) {
				fails = append(fails, fmt.Sprintf("%v: profile diameter %d histogram %v, library %d %v", a.Inst, a.Diameter, a.Histogram, res.Eccentricity, res.Histogram))
			}
		}
	}
	return fails, nil
}
