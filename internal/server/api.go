package server

import (
	"repro/internal/obs"
	"repro/internal/store"
)

// This file defines the JSON wire types of the scgd v1 API, shared by the
// handlers, the scgload client, and the tests. Every response is a JSON
// object; errors are ErrorResponse with a 4xx/5xx status.

// RouteRequest asks for a generator (link) sequence from Src to Dst in one
// network instance. It arrives as query parameters (family, l, n, src, dst)
// or, on POST, as a JSON body.
type RouteRequest struct {
	// Family is the network class by paper name, e.g. "MS", "complete-RS",
	// "star" (see topology.ParseFamily).
	Family string `json:"family"`
	// L is the number of super-symbols; ignored for nucleus-only families.
	L int `json:"l"`
	// N is the super-symbol length (k-1 for nucleus-only families).
	N int `json:"n"`
	// Src and Dst are node labels: permutations in the paper's compact digit
	// form ("5342671") or space-separated for k >= 10.
	Src string `json:"src"`
	Dst string `json:"dst"`
}

// RouteResponse is the solved route. Moves applied to Src in order, each by
// right multiplication, end at Dst; the server replays the walk before
// answering, so Verified is always true on a 200.
type RouteResponse struct {
	Network string   `json:"network"`
	K       int      `json:"k"`
	Nodes   int64    `json:"nodes"`
	Src     string   `json:"src"`
	Dst     string   `json:"dst"`
	Moves   []string `json:"moves"`
	Hops    int      `json:"hops"`
	// DiameterBound is the routing algorithm's worst-case move bound.
	DiameterBound int  `json:"diameter_bound"`
	Verified      bool `json:"verified"`
	// ExactDistance and Stretch are filled opportunistically when the exact
	// BFS distance table for the instance is already cached (a completed
	// /v1/profile job); no table is built for a route request.
	ExactDistance *int     `json:"exact_distance,omitempty"`
	Stretch       *float64 `json:"stretch,omitempty"`
}

// Neighbor is one out-link of a node: the generator label and the node it
// leads to.
type Neighbor struct {
	Move string `json:"move"`
	Node string `json:"node"`
}

// NeighborsResponse enumerates a node's out-links in generator order.
type NeighborsResponse struct {
	Network   string     `json:"network"`
	K         int        `json:"k"`
	Node      string     `json:"node"`
	Degree    int        `json:"degree"`
	Neighbors []Neighbor `json:"neighbors"`
}

// MetricsResponse reports the §4 cost measures for one instance: degree,
// diameter bounds, the universal lower bound D_L(N,d), the α ratio, and the
// degree×diameter cost. Exact fields appear when an exact profile is cached.
type MetricsResponse struct {
	Network            string `json:"network"`
	Family             string `json:"family"`
	L                  int    `json:"l"`
	N                  int    `json:"n"`
	K                  int    `json:"k"`
	Nodes              int64  `json:"nodes"`
	Degree             int    `json:"degree"`
	InterclusterDegree int    `json:"intercluster_degree"`
	Undirected         bool   `json:"undirected"`
	// DiameterBound is this repository's routing-algorithm bound; PaperBound
	// is the paper's printed theorem bound when it survived in the source.
	DiameterBound int  `json:"diameter_bound"`
	PaperBound    *int `json:"paper_bound,omitempty"`
	// DL is the universal diameter lower bound D_L(N,d) (equation 2; the
	// directed Moore bound for directed families).
	DL float64 `json:"d_l"`
	// AlphaBound is DiameterBound / DL, an upper bound on the paper's α.
	AlphaBound float64 `json:"alpha_bound"`
	// Cost is the degree×diameter-bound product of Figure 6.
	Cost int `json:"cost"`
	// ExactDiameter, ExactAvgDistance, and AlphaExact are present when the
	// instance's exact BFS profile is resident in the cache.
	ExactDiameter    *int     `json:"exact_diameter,omitempty"`
	ExactAvgDistance *float64 `json:"exact_avg_distance,omitempty"`
	AlphaExact       *float64 `json:"alpha_exact,omitempty"`
}

// ProfileResult is the outcome of an exact-profile job: one full-graph BFS.
type ProfileResult struct {
	Diameter    int     `json:"diameter"`
	AvgDistance float64 `json:"avg_distance"`
	Nodes       int64   `json:"nodes"`
	// Histogram[d] is the number of nodes at distance exactly d.
	Histogram []int64 `json:"histogram"`
}

// ProfileResponse describes an exact-profile job. A submit answers once
// the job is over, with its final "done" or "failed" snapshot (200); polls
// by job ID return the same snapshot from the finished-job ledger.
type ProfileResponse struct {
	JobID string `json:"job_id"`
	// RequestID is the X-Request-Id of the request that created the job —
	// the join key into the access and slow logs for its build and
	// write-back.
	RequestID string `json:"request_id,omitempty"`
	Network   string `json:"network"`
	Status    string `json:"status"`
	// Cached is true when the submit was answered from the profile cache
	// without running a new job.
	Cached bool           `json:"cached,omitempty"`
	Error  string         `json:"error,omitempty"`
	Result *ProfileResult `json:"result,omitempty"`
}

// EndpointStats is the per-endpoint slice of /statsz.
type EndpointStats struct {
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	// Rejected counts requests shed by the admission gate (503).
	Rejected int64 `json:"rejected"`
	// Latency summarizes the endpoint's service time in microseconds.
	Latency obs.Summary `json:"latency_us"`
}

// JobsStats is the job-manager slice of /statsz.
type JobsStats struct {
	Submitted int64 `json:"submitted"`
	Coalesced int64 `json:"coalesced"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	// WriteBacksSkipped counts store write-backs of built profiles that a
	// full write-back queue refused; the profile stays served from memory.
	WriteBacksSkipped int64 `json:"writebacks_skipped"`
	// Running is the number of jobs holding a build slot now.
	Running int64 `json:"running"`
}

// StatsResponse is the /statsz document.
type StatsResponse struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Goroutines    int     `json:"goroutines"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	// SlowRequests counts slow-log lines emitted (requests and job builds
	// at least Config.SlowThreshold slow, when the slow log is enabled).
	SlowRequests int64                    `json:"slow_requests"`
	Endpoints    map[string]EndpointStats `json:"endpoints"`
	Cache        CacheStats               `json:"cache"`
	Jobs         JobsStats                `json:"jobs"`
	// Store is the persistent profile-store slice, present only when scgd
	// runs with -store.
	Store *store.StatsSnapshot `json:"store,omitempty"`
}

// HealthResponse is the /healthz document.
type HealthResponse struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// ErrorResponse carries every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}
