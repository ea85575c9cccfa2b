// Command scgload is a closed-loop load generator for scgd: a fixed worker
// pool issues back-to-back requests against the topology-query service (a
// live daemon via -url, or, when -url is empty, an in-process server.Run on
// a loopback listener) with a weighted endpoint mix, and reports
// per-endpoint throughput and latency percentiles as JSON — the
// many-connection load generator beside scgbench, whose interleaved pairs
// are the measured closed-loop comparison.
//
// Examples:
//
//	scgload -family MS -l 2 -n 3 -workers 8 -duration 5s -out load.json
//	scgload -url http://localhost:8080 -mix route:80,metrics:20
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/perm"
	"repro/internal/pool"
	"repro/internal/server"
	"repro/internal/topology"
	"repro/internal/version"
)

// Report is the top-level JSON document. Its environment fields are the
// ones cmd/benchreport writes, plus gomaxprocs.
type Report struct {
	Schema          string         `json:"schema"`
	Target          string         `json:"target"`
	Network         string         `json:"network"`
	Workers         int            `json:"workers"`
	DurationSeconds float64        `json:"duration_seconds"`
	GoVersion       string         `json:"go_version"`
	GOOS            string         `json:"goos"`
	GOARCH          string         `json:"goarch"`
	NumCPU          int            `json:"num_cpu"`
	GOMAXPROCS      int            `json:"gomaxprocs"`
	Endpoints       []EndpointLoad `json:"endpoints"`
	// ServerStats is the daemon's own /statsz snapshot after the run —
	// cache hit/build counts prove what the load actually exercised.
	ServerStats *server.StatsResponse `json:"server_stats,omitempty"`
	// MetricsDelta is the change in every monotone /metricsz sample
	// (counters and histogram buckets) across the measurement window: the
	// server's own accounting of the run, from the same scrape surface a
	// production Prometheus would watch. Absent when /metricsz was
	// unreachable.
	MetricsDelta map[string]float64 `json:"metrics_delta,omitempty"`
}

// EndpointLoad is one endpoint's measured load slice ("total" aggregates).
type EndpointLoad struct {
	Name     string      `json:"name"`
	Requests int64       `json:"requests"`
	Errors   int64       `json:"errors"`
	RPS      float64     `json:"rps"`
	Latency  obs.Summary `json:"latency_us"`
}

// workerStats accumulates one worker's observations, merged after the run.
type workerStats struct {
	requests map[string]int64
	errors   map[string]int64
	lat      map[string]*obs.Histogram
}

func newWorkerStats(endpoints []string) *workerStats {
	ws := &workerStats{
		requests: make(map[string]int64),
		errors:   make(map[string]int64),
		lat:      make(map[string]*obs.Histogram),
	}
	for _, ep := range endpoints {
		ws.lat[ep] = obs.NewHistogram()
	}
	return ws
}

func main() {
	var (
		target      = flag.String("url", "", "scgd base URL (empty = run an in-process server)")
		family      = flag.String("family", "MS", "network family for generated requests")
		l           = flag.Int("l", 2, "super-symbol count")
		n           = flag.Int("n", 3, "super-symbol length")
		workers     = flag.Int("workers", 8, "closed-loop workers (each issues requests back-to-back)")
		duration    = flag.Duration("duration", 5*time.Second, "measurement window")
		mix         = flag.String("mix", "route:70,metrics:20,neighbors:10", "endpoint mix as name:weight pairs")
		seed        = flag.Uint64("seed", 1, "workload RNG seed (worker i uses seed+i)")
		out         = flag.String("out", "-", "JSON report path, or - for stdout")
		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String("scgload"))
		return
	}
	fam, err := topology.ParseFamily(*family)
	fail(err)
	nw, err := topology.New(fam, *l, *n)
	fail(err)
	k := nw.K()

	weights, endpoints, err := parseMix(*mix)
	fail(err)

	base := *target
	targetLabel := base
	if base == "" {
		// The in-process target is scgd's own transport: server.Run on a
		// loopback listener, as the daemon serves.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		fail(err)
		ctx, stop := context.WithCancel(context.Background())
		var srv pool.Group
		var runErr error
		srv.Go(func() { runErr = server.Run(ctx, ln, server.New(server.Config{}), 5*time.Second) })
		defer func() {
			stop()
			srv.Wait()
			fail(runErr)
		}()
		base = "http://" + ln.Addr().String()
		targetLabel = "in-process"
	}
	base = strings.TrimRight(base, "/")

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        *workers * 2,
		MaxIdleConnsPerHost: *workers * 2,
	}}

	if *workers < 1 {
		*workers = 1
	}
	before := scrapeMetrics(client, base)
	deadline := time.Now().Add(*duration)
	t0 := time.Now()
	perWorker, err := pool.Map(*workers, *workers, func(i int) (*workerStats, error) {
		ws := newWorkerStats(endpoints)
		rng := perm.NewRNG(*seed + uint64(i))
		for time.Now().Before(deadline) {
			ep := pickEndpoint(weights, endpoints, rng)
			reqURL := buildURL(base, ep, fam, *l, *n, k, rng)
			start := time.Now()
			status, err := issue(client, reqURL)
			elapsed := time.Since(start)
			ws.requests[ep]++
			if err != nil || status >= 400 {
				ws.errors[ep]++
			}
			ws.lat[ep].Observe(elapsed.Microseconds())
		}
		return ws, nil
	})
	fail(err)
	elapsed := time.Since(t0)

	rep := &Report{
		Schema:          "scg-servbench/v1",
		Target:          targetLabel,
		Network:         nw.Name(),
		Workers:         *workers,
		DurationSeconds: elapsed.Seconds(),
		GoVersion:       runtime.Version(),
		GOOS:            runtime.GOOS,
		GOARCH:          runtime.GOARCH,
		NumCPU:          runtime.NumCPU(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
	}
	total := EndpointLoad{Name: "total"}
	totalLat := obs.NewHistogram()
	for _, ep := range endpoints {
		lat := obs.NewHistogram()
		var reqs, errs int64
		for _, ws := range perWorker {
			reqs += ws.requests[ep]
			errs += ws.errors[ep]
			lat.Merge(ws.lat[ep])
		}
		rep.Endpoints = append(rep.Endpoints, EndpointLoad{
			Name:     ep,
			Requests: reqs,
			Errors:   errs,
			RPS:      float64(reqs) / elapsed.Seconds(),
			Latency:  lat.Summary(),
		})
		total.Requests += reqs
		total.Errors += errs
		totalLat.Merge(lat)
	}
	total.RPS = float64(total.Requests) / elapsed.Seconds()
	total.Latency = totalLat.Summary()
	rep.Endpoints = append(rep.Endpoints, total)
	rep.ServerStats = fetchStats(client, base)
	rep.MetricsDelta = metricsDelta(before, scrapeMetrics(client, base))

	enc, err := json.MarshalIndent(rep, "", "  ")
	fail(err)
	enc = append(enc, '\n')
	if *out == "-" {
		_, err = os.Stdout.Write(enc)
		fail(err)
		return
	}
	fail(os.WriteFile(*out, enc, 0o644))
	fmt.Printf("wrote %s (%d requests, %.0f req/s, p99 %.0f us)\n",
		*out, total.Requests, total.RPS, total.Latency.P99)
}

// parseMix decodes "route:70,metrics:20,neighbors:10" into cumulative
// weights plus the endpoint order.
func parseMix(s string) (weights []int, endpoints []string, err error) {
	known := map[string]bool{"route": true, "metrics": true, "neighbors": true}
	sum := 0
	for _, part := range strings.Split(s, ",") {
		name, w, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, nil, fmt.Errorf("bad mix entry %q (want name:weight)", part)
		}
		if !known[name] {
			return nil, nil, fmt.Errorf("unknown mix endpoint %q (route, metrics, neighbors)", name)
		}
		v, err := strconv.Atoi(w)
		if err != nil || v <= 0 {
			return nil, nil, fmt.Errorf("bad mix weight %q", w)
		}
		sum += v
		weights = append(weights, sum)
		endpoints = append(endpoints, name)
	}
	if len(endpoints) == 0 {
		return nil, nil, fmt.Errorf("empty mix")
	}
	return weights, endpoints, nil
}

// pickEndpoint samples the weighted mix.
func pickEndpoint(weights []int, endpoints []string, rng *perm.RNG) string {
	total := weights[len(weights)-1]
	x := rng.Intn(total)
	for i, w := range weights {
		if x < w {
			return endpoints[i]
		}
	}
	return endpoints[len(endpoints)-1]
}

// buildURL renders one request of the given kind with fresh random nodes.
func buildURL(base, ep string, fam topology.Family, l, n, k int, rng *perm.RNG) string {
	q := url.Values{}
	q.Set("family", fam.String())
	q.Set("l", strconv.Itoa(l))
	q.Set("n", strconv.Itoa(n))
	switch ep {
	case "route":
		q.Set("src", perm.Random(k, rng).String())
		q.Set("dst", perm.Random(k, rng).String())
		return base + "/v1/route?" + q.Encode()
	case "neighbors":
		q.Set("node", perm.Random(k, rng).String())
		return base + "/v1/neighbors?" + q.Encode()
	default:
		return base + "/v1/metrics?" + q.Encode()
	}
}

// issue performs one request, draining the body so connections are reused.
func issue(client *http.Client, reqURL string) (int, error) {
	resp, err := client.Get(reqURL)
	if err != nil {
		return 0, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	return resp.StatusCode, nil
}

// scrapeMetrics fetches /metricsz and parses the monotone samples (families
// typed counter or histogram) into sample-name -> value. Gauges are skipped:
// a before/after subtraction only means something for values that never go
// down. Returns nil when the endpoint is unreachable (an older daemon).
func scrapeMetrics(client *http.Client, base string) map[string]float64 {
	resp, err := client.Get(base + "/metricsz")
	if err != nil {
		return nil
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return nil
	}
	monotone := make(map[string]bool)
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) == 4 && (f[3] == "counter" || f[3] == "histogram") {
				monotone[f[2]] = true
			}
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		base := name
		if b := strings.IndexByte(base, '{'); b >= 0 {
			base = base[:b]
		}
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if monotone[strings.TrimSuffix(base, suffix)] {
				base = strings.TrimSuffix(base, suffix)
				break
			}
		}
		if !monotone[base] {
			continue
		}
		if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// metricsDelta subtracts two scrapes, keeping samples that moved (or
// appeared) during the window.
func metricsDelta(before, after map[string]float64) map[string]float64 {
	if after == nil {
		return nil
	}
	delta := make(map[string]float64)
	for name, v := range after {
		if d := v - before[name]; d != 0 {
			delta[name] = d
		}
	}
	return delta
}

// fetchStats grabs the server's /statsz snapshot; nil when unreachable.
func fetchStats(client *http.Client, base string) *server.StatsResponse {
	resp, err := client.Get(base + "/statsz")
	if err != nil {
		return nil
	}
	defer func() { _ = resp.Body.Close() }()
	var st server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil
	}
	return &st
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "scgload:", err)
		os.Exit(1)
	}
}
