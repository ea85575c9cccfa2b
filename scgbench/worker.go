package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workerResult is what one worker process reports to the parent.
type workerResult struct {
	Ops       int      `json:"ops"`
	Failed    int      `json:"failed"`
	Fails     []string `json:"fails,omitempty"`
	LatNS     []int64  `json:"lat_ns"`
	WallNS    int64    `json:"wall_ns"`
	SetupS    float64  `json:"setup_s"`
	PeakRSSKB int64    `json:"peak_rss_kb"`
	// NullNS is the median null round trip of the host-speed reference
	// measured between the timed ops.
	NullNS float64 `json:"null_ns,omitempty"`
	// Answers the parent checks against the library once per run.
	Pairs    []pairAnswer    `json:"pairs,omitempty"`
	Profiles []profileAnswer `json:"profiles,omitempty"`
	// Layers holds the traced run's per-layer metrics.
	Layers map[string]float64 `json:"layers,omitempty"`
}

// runWorker is one worker process: set up, drive the op list, report.
func runWorker(spec *spec, o options) (*workerResult, error) {
	if o.trace {
		return runTraced(spec, o)
	}
	w, p, setup, err := timedPass(spec, o, false)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSKB()
	if err != nil {
		return nil, err
	}
	return &workerResult{
		Ops: w.count(), Failed: p.failed, Fails: p.fails,
		LatNS: p.lat, WallNS: p.wallNS, SetupS: setup, PeakRSSKB: rss,
		NullNS: p.ref.median(),
		Pairs:  p.pairs, Profiles: p.profs,
	}, nil
}

// timedPass generates the op list, sets the workload up, runs it, and
// tears it down. setup is the time from the process start to the end of
// the workload's set-up. The timed window runs on timedProcs Ps. An
// end-to-end pass starts the host-speed reference, untimed, right after
// set-up and measures it between the ops.
func timedPass(spec *spec, o options, traced bool) (workload, *pass, float64, error) {
	w, err := spec.make(o, spec.opsPerWorker(o))
	if err != nil {
		return nil, nil, 0, err
	}
	p := newPass(o, traced)
	if err := w.setup(p); err != nil {
		return nil, nil, 0, fmt.Errorf("setup: %w", err)
	}
	setup := time.Since(processStart).Seconds()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(timedProcs))
	if !o.trace {
		if p.ref, err = newHostRef(); err != nil {
			return nil, nil, 0, err
		}
		if err := p.ref.block(refWarm, false); err != nil {
			return nil, nil, 0, fmt.Errorf("host reference: %w", err)
		}
	}
	err = p.run(w)
	if p.ref != nil {
		if cerr := p.ref.close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, nil, 0, err
	}
	if err := w.close(p); err != nil {
		return nil, nil, 0, err
	}
	return w, p, setup, nil
}

// runTraced is a traced worker: an untraced pass gives the baseline
// throughput, the counters and the runtime figures; a traced pass over a
// fresh set-up, with scgd's slow log at threshold 0 joined to the
// benchmark's spans, gives phases and job timings; direct calls into each
// layer give the rest. Spans are written when the worker ends.
func runTraced(spec *spec, o options) (*workerResult, error) {
	dir, err := workerDir(o)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	w0, p0, _, err := timedPass(spec, o, false)
	if err != nil {
		return nil, err
	}
	_, p1, _, err := timedPass(spec, o, true)
	if err != nil {
		return nil, err
	}
	recs, err := parseSlowLog(p1.slow.bytes())
	if err != nil {
		return nil, fmt.Errorf("slow log: %w", err)
	}
	ps := joinSlowLog(recs, p1.tr, p1.slowMark)

	ops := float64(w0.count())
	meanOp := float64(p0.wallNS) / ops / 1e3
	L := map[string]float64{
		"mean_op_us":            meanOp,
		"loadgen.self_us":       float64(p0.selfNS) / ops / 1e3,
		"loadgen.polls_per_op":  float64(p0.polls) / ops,
		"server.observed_us":    p0.counters["server.duration_us"] / ops,
		"net.self_us":           (float64(p0.httpWin)/1e3 - p0.counters["server.duration_us"]) / ops,
		"runtime.allocs_per_op": float64(p0.rt.mallocs) / ops,
		"runtime.bytes_per_op":  float64(p0.rt.bytes) / ops,
		"runtime.gc_cycles":     float64(p0.rt.gcs),
		"runtime.gc_pause_us":   float64(p0.rt.pauseNS) / 1e3,
		"cache.hit_ratio":       p0.counters.ratio("cache.hits", "cache.misses"),
		"cache.builds":          p0.counters["cache.builds"],
		"cache.evictions":       p0.counters["cache.evictions"],
		"cache.coalesced":       p0.counters["cache.coalesced"],
		"trace.overhead_pct":    (1 - float64(p0.wallNS)/float64(p1.wallNS)) * 100,
	}
	insts, pairs := w0.layerInputs()
	// The probes take the timed window's ops apart, so they run on its Ps.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(timedProcs))
	if err := runProbes(p1, insts, pairs, dir, ps, L); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	residual := meanOp - L["loadgen.self_us"] - L["net.null_roundtrip_us"] - L["server.observed_us"]
	L["layers.residual_us"] = residual
	L["layers.residual_pct"] = residual / meanOp * 100

	spans := filepath.Join(o.dir, "spans", fmt.Sprintf("%s-seed%d-w%d.ndjson.gz", o.workload, o.seed, o.child))
	if err := p1.tr.write(spans); err != nil {
		return nil, err
	}
	return &workerResult{
		Ops:      w0.count() * 2,
		Failed:   p0.failed + p1.failed,
		Fails:    append(p0.fails, p1.fails...),
		Pairs:    append(p0.pairs, p1.pairs...),
		Profiles: append(p0.profs, p1.profs...),
		Layers:   L,
	}, nil
}
