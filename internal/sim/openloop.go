package sim

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/perm"
)

// OpenLoopResult reports a steady-state open-loop run: Bernoulli traffic is
// injected for a fixed horizon and the delivered throughput and latency are
// measured — the simulator-side counterpart of the §4.2 pin-limited
// throughput model.
type OpenLoopResult struct {
	// Offered is the requested injection rate (packets/node/step).
	Offered float64
	// Throughput is the measured delivery rate (packets/node/step) over
	// the whole horizon.
	Throughput float64
	// MeanLatency is the average steps from injection to delivery over
	// delivered packets.
	MeanLatency float64
	// Injected and Delivered count packets.
	Injected, Delivered int64
	// Dropped counts injection attempts discarded at the NIC (the random
	// destination equalled the source).
	Dropped int64
	// Backlog is the number of packets still queued at the horizon.
	Backlog int64
	// Latency summarizes the injection-to-delivery latency distribution in
	// steps (p50/p95/p99/max from a log-bucketed histogram; the mean is
	// exact and equals MeanLatency).
	Latency obs.Summary
}

func (r *OpenLoopResult) String() string {
	return fmt.Sprintf("offered=%.4f throughput=%.4f latency=%.2f latency[%s] delivered=%d dropped=%d backlog=%d",
		r.Offered, r.Throughput, r.MeanLatency, r.Latency, r.Delivered, r.Dropped, r.Backlog)
}

// RunOpenLoop injects uniform-random traffic at `rate` packets per node per
// step for `steps` steps and then drains nothing further: the measured
// throughput saturates near the network's capacity once rate exceeds it.
// Deterministic in seed. rec (nil means tracing off) receives one
// StepSample per step, whose Injected, Delivered and Dropped deltas sum to
// the run totals and whose Backlog gauge tracks queue growth toward (or
// past) saturation, and the end-of-run "latency" and "link_load"
// histograms. Per-packet events are not emitted — at steady state they
// would dwarf the step series.
func RunOpenLoop(topo Topology, rate float64, steps int, model PortModel, seed uint64, rec obs.Recorder) (*OpenLoopResult, error) {
	if rate <= 0 || rate > 1 {
		return nil, fmt.Errorf("sim: RunOpenLoop: rate %v outside (0,1]", rate)
	}
	if steps <= 0 {
		return nil, fmt.Errorf("sim: RunOpenLoop: steps must be positive")
	}
	nw, err := simulate("RunOpenLoop", topo, model, traffic{rate: rate, rng: perm.NewRNG(seed)}, 0, steps, rec)
	if err != nil {
		return nil, err
	}
	return &OpenLoopResult{
		Offered:     rate,
		Throughput:  float64(nw.delivered) / (float64(topo.NumNodes()) * float64(steps)),
		MeanLatency: nw.lat.Mean(),
		Injected:    nw.injected,
		Delivered:   nw.delivered,
		Dropped:     nw.dropped,
		Backlog:     nw.inFlight,
		Latency:     nw.lat.Summary(),
	}, nil
}

// SaturationThroughput runs RunOpenLoop at increasing offered rates and
// returns the highest measured throughput — an empirical estimate of the
// network's capacity per node.
func SaturationThroughput(topo Topology, steps int, model PortModel, seed uint64) (float64, error) {
	best := 0.0
	for _, rate := range []float64{0.05, 0.1, 0.2, 0.4, 0.8, 1.0} {
		res, err := RunOpenLoop(topo, rate, steps, model, seed, nil)
		if err != nil {
			return 0, err
		}
		best = max(best, res.Throughput)
	}
	return best, nil
}
