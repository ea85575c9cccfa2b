// Command scgd is the super-Cayley topology-query daemon: a stdlib-only
// HTTP/1.1 JSON service answering the query workload a fabric controller
// issues against the paper's networks — route lookup (the ball-arrangement
// game solvers), neighbor enumeration, degree/diameter/cost metrics, and
// exact BFS profiles — from a byte-budgeted topology cache with request
// coalescing and per-endpoint admission control.
//
// Endpoints: /v1/route, /v1/neighbors, /v1/metrics, /v1/profile (a submit
// runs its job and answers with the result and a job ID, which ?id= reads
// back from the finished-job ledger), /healthz, /statsz, and /metricsz
// (Prometheus text exposition of the same counters /statsz reports, plus
// runtime/metrics gauges).
//
// Every response carries an X-Request-Id (propagated from the client when
// valid, generated otherwise) that joins the access log, the slow-request
// log (-slow-log/-slow-ms: per-phase span timelines for slow requests,
// profile builds and their store write-backs), and /v1/profile job
// snapshots.
//
// Examples:
//
//	scgd -addr :8080
//	curl 'localhost:8080/v1/route?family=MS&l=2&n=3&src=1234567&dst=7654321'
//	curl 'localhost:8080/v1/metrics?family=complete-RS&l=3&n=2'
//	curl 'localhost:8080/v1/profile?family=MS&l=2&n=4'   # k = 9 -> done + result, job-1
//	curl 'localhost:8080/v1/profile?id=job-1'            # -> the same snapshot
//	curl 'localhost:8080/metricsz'                       # -> Prometheus text
//	scgd -debug-addr 127.0.0.1:6060                      # pprof sidecar
//
// -debug-addr serves net/http/pprof on its own listener — never on the
// serving mux — so profiling stays reachable under load shed and is bound
// to loopback by operator choice rather than exposed with the API.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener closes,
// in-flight requests and the profile jobs they run drain (bounded by
// -drain-timeout), pending store write-backs finish, and the process
// exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/version"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		cacheMB      = flag.Int64("cache-mb", 256, "topology/profile cache budget in MiB")
		maxInflight  = flag.Int("max-inflight", 64, "max concurrent requests per gated endpoint (excess get 503)")
		profWorkers  = flag.Int("profile-workers", 0, "exact-profile builds run at once, and store write-back workers (0 = GOMAXPROCS); a submit past them waits for a slot until -request-timeout (then 504)")
		reqTimeout   = flag.Duration("request-timeout", 10*time.Second, "deadline, from request start, for a request's wait on a cold build, a build slot or a running profile job (then 504)")
		drainTimeout = flag.Duration("drain-timeout", 15*time.Second, "graceful-shutdown drain bound for in-flight requests")
		maxK         = flag.Int("max-k", 20, "largest node-label length a request may materialize (<= 20)")
		accessLog    = flag.String("access-log", "", "NDJSON access-record path ('-' for stdout, empty = off)")
		slowLog      = flag.String("slow-log", "", "NDJSON slow-request path ('-' for stdout, empty = off; span timelines are stamped only with it)")
		slowMS       = flag.Int64("slow-ms", 250, "slow-log latency threshold in milliseconds (0 logs every request)")
		sampleEvery  = flag.Duration("metrics-sample", 10*time.Second, "runtime/metrics sampling interval (negative = off)")
		debugAddr    = flag.String("debug-addr", "", "serve net/http/pprof on this separate address (empty = off)")
		storeDir     = flag.String("store", "", "persistent profile-store directory (empty = off); profiles load from here before BFS and write back after")
		showVersion  = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String("scgd"))
		return
	}

	cfg := server.Config{
		CacheBytes:     *cacheMB << 20,
		MaxInflight:    *maxInflight,
		ProfileWorkers: *profWorkers,
		RequestTimeout: *reqTimeout,
		MaxK:           *maxK,
		SlowThreshold:  time.Duration(*slowMS) * time.Millisecond,
		SampleInterval: *sampleEvery,
	}
	cfg.AccessLog = openLog(*accessLog)
	cfg.SlowLog = openLog(*slowLog)
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		fail(err)
		cfg.Store = st
	}

	ln, err := net.Listen("tcp", *addr)
	fail(err)
	fmt.Printf("scgd listening on %s (cache %d MiB, %d in-flight per endpoint)\n",
		ln.Addr(), *cacheMB, *maxInflight)
	if cfg.Store != nil {
		fmt.Printf("scgd profile store at %s\n", cfg.Store.Dir())
	}

	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		fail(err)
		fmt.Printf("scgd pprof on %s\n", dln.Addr())
		// The pprof mux is explicit: only the profiling handlers, on a
		// listener the API traffic never reaches. The goroutine dies with
		// the process; profiling needs no graceful drain.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dsrv := &http.Server{Handler: dmux}
		go func() { _ = dsrv.Serve(dln) }()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	s := server.New(cfg)
	err = server.Run(ctx, ln, s, *drainTimeout)
	fail(err)
	fmt.Println("scgd: drained, bye")
}

// openLog resolves an NDJSON sink flag: empty = off, "-" = stdout,
// otherwise append to the named file (left open until process exit).
func openLog(path string) io.Writer {
	switch path {
	case "":
		return nil
	case "-":
		return os.Stdout
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	fail(err)
	return f
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "scgd:", err)
		os.Exit(1)
	}
}
