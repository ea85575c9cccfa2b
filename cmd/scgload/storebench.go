package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/topology"
)

// StoreBenchReport is the committed BENCH_store.json document: the
// cold-build vs store-load comparison that justifies the persistent
// profile store. Each instance is measured through the server, Samples
// times each way: as a profile job against an empty store (BFS; the
// write-back runs after the job is done), each on a fresh server and
// store, and as a profile request on a fresh server against a populated
// store (restart-equivalent). So the two numbers are the real "first
// profile after deploy" and "first request after restart" costs.
type StoreBenchReport struct {
	Schema     string `json:"schema"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Samples is the number of cold builds and of store loads timed per
	// instance.
	Samples int `json:"samples"`

	Instances []StoreBenchInstance `json:"instances"`
}

// StoreBenchInstance is one (family, l, n) measurement. Times are the
// median, min and max of the report's Samples.
type StoreBenchInstance struct {
	Network string `json:"network"`
	Family  string `json:"family"`
	L       int    `json:"l"`
	N       int    `json:"n"`
	K       int    `json:"k"`
	Nodes   int64  `json:"nodes"`
	// ColdBuildMicros is a first-ever profile job, from submit to done:
	// the full BFS, without the store write-back, which runs after it.
	ColdBuildMicros    float64 `json:"cold_build_us"`
	ColdBuildMinMicros float64 `json:"cold_build_min_us"`
	ColdBuildMaxMicros float64 `json:"cold_build_max_us"`
	// StoreLoadMicros is the same request on a fresh server against the
	// populated store: one sequential read, decode, and validate.
	StoreLoadMicros    float64 `json:"store_load_us"`
	StoreLoadMinMicros float64 `json:"store_load_min_us"`
	StoreLoadMaxMicros float64 `json:"store_load_max_us"`
	// Speedup is ColdBuildMicros / StoreLoadMicros, medians both.
	Speedup float64 `json:"speedup"`
	// FileBytes is the size of the persisted scgstore/v1 entry.
	FileBytes int64 `json:"file_bytes"`
	Diameter  int   `json:"diameter"`
}

// storeBenchSamples is the number of cold builds and of store loads timed
// per instance. Below k = 8 each takes tens of µs, and a single sample's
// speedup read 0.8× in one run and 2.2× in the next.
const storeBenchSamples = 5

// runStoreBench measures every instance of the sweep spec and writes the
// scg-storebench/v2 report to out ("-" = stdout). ctx is main's root: the
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
		Schema:     "scg-storebench/v2",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Samples:    storeBenchSamples,
	}
	for _, in := range ins {
		m, err := benchInstance(ctx, dir, in)
		if err != nil {
			return fmt.Errorf("storebench %v: %w", in, err)
		}
		rep.Instances = append(rep.Instances, *m)
		fmt.Fprintf(os.Stderr, "storebench %-20s cold %10.0f us [%.0f, %.0f]  warm %8.0f us [%.0f, %.0f]  %7.1fx  %d bytes\n",
			m.Network, m.ColdBuildMicros, m.ColdBuildMinMicros, m.ColdBuildMaxMicros,
			m.StoreLoadMicros, m.StoreLoadMinMicros, m.StoreLoadMaxMicros, m.Speedup, m.FileBytes)
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

// benchInstance measures one instance: storeBenchSamples cold builds, each
// through its own server over its own empty store directory under dir,
// then storeBenchSamples store loads, each through a brand-new server (the
// restart) against the entry the last cold build persisted.
func benchInstance(ctx context.Context, dir string, in topology.Instance) (*StoreBenchInstance, error) {
	key := server.Key{Family: in.Family, L: in.L, N: in.N}
	sk := store.Key{Family: in.Family.String(), L: in.L, N: in.N}

	cold := make([]float64, storeBenchSamples)
	var (
		prof     *core.BFSResult
		storeDir string
		fi       os.FileInfo
	)
	for i := range cold {
		d, err := os.MkdirTemp(dir, "cold-*")
		if err != nil {
			return nil, err
		}
		st, err := store.Open(d)
		if err != nil {
			return nil, err
		}
		// The profile job misses the store, runs the BFS, and is done
		// before its write-back, which Close drains.
		srv := server.New(server.Config{Store: st, SampleInterval: -1})
		t0 := time.Now()
		job, err := srv.Jobs().Submit(ctx, key, "")
		cold[i] = float64(time.Since(t0).Microseconds())
		srv.Close()
		if err == nil && job.Status == server.JobFailed {
			err = errors.New(job.Err)
		}
		if err != nil {
			return nil, err
		}
		if fi, err = os.Stat(st.EntryPath(sk)); err != nil {
			return nil, fmt.Errorf("cold pass persisted nothing: %w", err)
		}
		prof, storeDir = job.Result, d
	}

	load := make([]float64, storeBenchSamples)
	for i := range load {
		// A fresh server and store handle over the populated directory:
		// exactly what a daemon restart sees.
		st, err := store.Open(storeDir)
		if err != nil {
			return nil, err
		}
		srv := server.New(server.Config{Store: st, SampleInterval: -1})
		t0 := time.Now()
		wprof, err := srv.Cache().Profile(ctx, key)
		load[i] = float64(time.Since(t0).Microseconds())
		srv.Close()
		if err != nil {
			return nil, err
		}
		if st.Stats().Hits.Load() == 0 {
			return nil, fmt.Errorf("warm pass did not hit the store")
		}
		if wprof.Eccentricity != prof.Eccentricity || wprof.Mean != prof.Mean {
			return nil, fmt.Errorf("store round-trip changed the profile: diameter %d->%d mean %g->%g",
				prof.Eccentricity, wprof.Eccentricity, prof.Mean, wprof.Mean)
		}
	}

	nw, err := topology.New(in.Family, in.L, in.N)
	if err != nil {
		return nil, err
	}
	m := &StoreBenchInstance{
		Network: nw.Name(), Family: in.Family.String(), L: in.L, N: in.N,
		K: in.K(), Nodes: nw.Nodes(),
		FileBytes: fi.Size(),
		Diameter:  prof.Eccentricity,
	}
	m.ColdBuildMicros, m.ColdBuildMinMicros, m.ColdBuildMaxMicros = medianMinMax(cold)
	m.StoreLoadMicros, m.StoreLoadMinMicros, m.StoreLoadMaxMicros = medianMinMax(load)
	if m.StoreLoadMicros > 0 {
		m.Speedup = m.ColdBuildMicros / m.StoreLoadMicros
	}
	return m, nil
}

// medianMinMax sorts xs (an odd number of samples) and returns its median,
// min and max.
func medianMinMax(xs []float64) (median, lo, hi float64) {
	sort.Float64s(xs)
	return xs[len(xs)/2], xs[0], xs[len(xs)-1]
}
