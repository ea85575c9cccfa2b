package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/topology"
)

// StoreBenchReport is the committed BENCH_store.json document: the
// cold-build vs store-load comparison that justifies the persistent
// profile store. Each instance is measured twice through the server —
// once as a profile job against an empty store (BFS; the write-back runs
// after the job is done) and once on a fresh server against the
// now-populated store (restart-equivalent) — so the two numbers are the
// real "first profile after deploy" and "first request after restart"
// costs.
type StoreBenchReport struct {
	Schema     string `json:"schema"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`

	Instances []StoreBenchInstance `json:"instances"`
}

// StoreBenchInstance is one (family, l, n) measurement.
type StoreBenchInstance struct {
	Network string `json:"network"`
	Family  string `json:"family"`
	L       int    `json:"l"`
	N       int    `json:"n"`
	K       int    `json:"k"`
	Nodes   int64  `json:"nodes"`
	// ColdBuildMicros is the first-ever profile job, from submit to done:
	// the full BFS, without the store write-back, which runs after it.
	ColdBuildMicros float64 `json:"cold_build_us"`
	// StoreLoadMicros is the same request on a fresh server against the
	// populated store: one sequential read, decode, and validate.
	StoreLoadMicros float64 `json:"store_load_us"`
	// Speedup is ColdBuildMicros / StoreLoadMicros.
	Speedup float64 `json:"speedup"`
	// FileBytes is the size of the persisted scgstore/v1 entry.
	FileBytes int64 `json:"file_bytes"`
	Diameter  int   `json:"diameter"`
}

// runStoreBench measures every instance of the sweep spec and writes the
// scg-storebench/v1 report to out ("-" = stdout). ctx is main's root: the
// builds are not deadline-bounded, but honor an interrupt.
func runStoreBench(ctx context.Context, sweep, out string) error {
	ins, err := topology.ParseSweepSpecs(sweep)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "scgload-storebench-*")
	if err != nil {
		return err
	}
	// Best-effort scratch cleanup; a leftover temp dir is harmless.
	defer func() { _ = os.RemoveAll(dir) }()

	rep := &StoreBenchReport{
		Schema:     "scg-storebench/v1",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, in := range ins {
		m, err := benchInstance(ctx, dir, in)
		if err != nil {
			return fmt.Errorf("storebench %v: %w", in, err)
		}
		rep.Instances = append(rep.Instances, *m)
		fmt.Fprintf(os.Stderr, "storebench %-20s cold %10.0f us  warm %8.0f us  %7.1fx  %d bytes\n",
			m.Network, m.ColdBuildMicros, m.StoreLoadMicros, m.Speedup, m.FileBytes)
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if out == "-" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(out, enc, 0o644)
}

// benchInstance measures one instance: cold build through a server with an
// empty store slot, then a store load through a brand-new server (the
// restart) against the entry the cold pass persisted.
func benchInstance(ctx context.Context, dir string, in topology.Instance) (*StoreBenchInstance, error) {
	key := server.Key{Family: in.Family, L: in.L, N: in.N}

	// Cold pass: its own server; the profile job misses the store, runs
	// the BFS, and is done before its write-back, which Close drains.
	coldStore, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	cold := server.New(server.Config{Store: coldStore, SampleInterval: -1})
	t0 := time.Now()
	job, err := profileJob(ctx, cold.Jobs(), key)
	coldElapsed := time.Since(t0)
	cold.Close()
	if err != nil {
		return nil, err
	}
	prof := job.Result
	sk := store.Key{Family: in.Family.String(), L: in.L, N: in.N}
	fi, err := os.Stat(coldStore.EntryPath(sk))
	if err != nil {
		return nil, fmt.Errorf("cold pass persisted nothing: %w", err)
	}

	// Warm pass: a fresh server and store handle over the same directory —
	// exactly what a daemon restart sees.
	warmStore, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	warm := server.New(server.Config{Store: warmStore, SampleInterval: -1})
	t1 := time.Now()
	wprof, err := warm.Cache().Profile(ctx, key)
	warmElapsed := time.Since(t1)
	warm.Close()
	if err != nil {
		return nil, err
	}
	if warmStore.Stats().Hits.Load() == 0 {
		return nil, fmt.Errorf("warm pass did not hit the store")
	}
	if wprof.Eccentricity != prof.Eccentricity || wprof.Mean != prof.Mean {
		return nil, fmt.Errorf("store round-trip changed the profile: diameter %d->%d mean %g->%g",
			prof.Eccentricity, wprof.Eccentricity, prof.Mean, wprof.Mean)
	}

	nw, err := topology.New(in.Family, in.L, in.N)
	if err != nil {
		return nil, err
	}
	m := &StoreBenchInstance{
		Network: nw.Name(), Family: in.Family.String(), L: in.L, N: in.N,
		K: in.K(), Nodes: nw.Nodes(),
		ColdBuildMicros: float64(coldElapsed.Microseconds()),
		StoreLoadMicros: float64(warmElapsed.Microseconds()),
		FileBytes:       fi.Size(),
		Diameter:        prof.Eccentricity,
	}
	if m.StoreLoadMicros > 0 {
		m.Speedup = m.ColdBuildMicros / m.StoreLoadMicros
	}
	return m, nil
}

// profileJob submits key's profile job and waits until it is done. A job
// on fewer than 8! states is done when Submit returns; a larger one is
// polled every 50 µs, well below the k >= 8 builds it waits on.
func profileJob(ctx context.Context, jobs *server.Jobs, key server.Key) (server.Job, error) {
	job, err := jobs.Submit(key, "")
	for err == nil && (job.Status == server.JobQueued || job.Status == server.JobRunning) {
		if err = ctx.Err(); err != nil {
			break
		}
		time.Sleep(50 * time.Microsecond)
		job, err = jobs.Get(job.ID)
	}
	if err == nil && job.Status == server.JobFailed {
		err = errors.New(job.Err)
	}
	return job, err
}
