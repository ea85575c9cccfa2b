package sim

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/topology"
)

func sumDeltas(steps []obs.StepSample) (injected, delivered, dropped int64) {
	for _, s := range steps {
		injected += s.Injected
		delivered += s.Delivered
		dropped += s.Dropped
	}
	return
}

func hasEvent(events []obs.Event, kind obs.EventKind) bool {
	for _, e := range events {
		if e.Kind == kind {
			return true
		}
	}
	return false
}

// TestUnicastTraceConsistency: the run with a Trace reproduces the run
// with a nil recorder exactly, per-step delivered deltas sum to the final
// count, the expected events appear, and the latency summary is internally
// consistent.
func TestUnicastTraceConsistency(t *testing.T) {
	pt := permTopo(t, topology.MS, 2, 2)
	pkts := RandomRouting(pt.NumNodes(), 500, 7)
	plain, err := RunUnicast(pt, pkts, AllPort, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace(1)
	traced, err := RunUnicast(pt, pkts, AllPort, 0, tr)
	if err != nil {
		t.Fatal(err)
	}
	if *plain != *traced {
		t.Errorf("tracing changed the result:\n plain  %+v\n traced %+v", plain, traced)
	}
	steps := tr.Steps()
	if len(steps) != traced.Steps {
		t.Errorf("got %d samples for %d steps", len(steps), traced.Steps)
	}
	_, delivered, _ := sumDeltas(steps)
	if delivered != traced.Delivered {
		t.Errorf("per-step delivered sum %d != final %d", delivered, traced.Delivered)
	}
	for _, kind := range []obs.EventKind{obs.EventInjection, obs.EventDrainStart, obs.EventDelivery} {
		if !hasEvent(tr.Events(), kind) {
			t.Errorf("missing %s event", kind)
		}
	}
	lat := tr.Histogram("latency")
	if lat == nil || lat.Count() != traced.Delivered {
		t.Fatalf("latency histogram count %v, want %d", lat, traced.Delivered)
	}
	s := traced.Latency
	if s.P50 > s.P95 || s.P95 > s.P99 || s.P99 > float64(s.Max) {
		t.Errorf("latency percentiles disordered: %+v", s)
	}
	if s.Max != int64(traced.Steps) {
		t.Errorf("latency max %d != completion time %d", s.Max, traced.Steps)
	}
	// The final per-step link-load sample matches the run's aggregate view.
	last := steps[len(steps)-1]
	if last.MaxLinkLoad != traced.MaxLinkLoad {
		t.Errorf("final sample max link load %d != result %d", last.MaxLinkLoad, traced.MaxLinkLoad)
	}
	if last.InFlight != 0 {
		t.Errorf("final sample in-flight %d != 0", last.InFlight)
	}
	link := tr.Histogram("link_load")
	if link == nil || link.Sum() != traced.TotalHops {
		t.Errorf("link_load histogram sum %v, want %d hops", link, traced.TotalHops)
	}
}

// TestBufferedDeadlockEvent: four packets chasing each other around a
// 4-cycle with capacity-1 buffers deadlock deterministically (each packet
// needs the slot the next one occupies), and the engine must emit an
// EventDeadlock to the recorder before reporting the error.
func TestBufferedDeadlockEvent(t *testing.T) {
	ring, err := NewTorusTopology(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	pkts := make([]Packet, 0, 4)
	for s := int64(0); s < 4; s++ {
		pkts = append(pkts, Packet{Src: s, Dst: (s + 2) % 4})
	}
	tr := obs.NewTrace(1)
	_, err = RunUnicastBuffered(ring, pkts, AllPort, 1, 1<<12, tr)
	if err == nil {
		t.Fatal("expected a deadlock error")
	}
	if !containsDeadlock(err.Error()) {
		t.Fatalf("unexpected error: %v", err)
	}
	var dead *obs.Event
	for i, e := range tr.Events() {
		if e.Kind == obs.EventDeadlock {
			dead = &tr.Events()[i]
		}
	}
	if dead == nil {
		t.Fatal("no deadlock-detected event recorded")
	}
	if dead.Count != 4 {
		t.Errorf("deadlock event count %d, want all 4 packets stuck", dead.Count)
	}
	// The partial trace up to the deadlock is still exported: histograms
	// were flushed even though the run failed.
	if tr.Histogram("latency") == nil || tr.Histogram("link_load") == nil {
		t.Error("histograms missing from deadlocked run")
	}
}

// TestBufferedTraceMatchesPlain: credit-limited runs report link loads and
// latency like unbounded ones, and a Trace in place of a nil recorder does
// not perturb them.
func TestBufferedTraceMatchesPlain(t *testing.T) {
	pt := permTopo(t, topology.MS, 2, 2)
	pkts := PermutationRouting(pt.NumNodes(), 5)
	plain, err := RunUnicastBuffered(pt, pkts, AllPort, 64, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain.MaxLinkLoad == 0 || plain.Latency.Count != plain.Delivered {
		t.Errorf("buffered result missing load/latency stats: %+v", plain)
	}
	tr := obs.NewTrace(1)
	traced, err := RunUnicastBuffered(pt, pkts, AllPort, 64, 0, tr)
	if err != nil {
		t.Fatal(err)
	}
	if *plain != *traced {
		t.Errorf("tracing changed buffered result:\n plain  %+v\n traced %+v", plain, traced)
	}
	injected, delivered, _ := sumDeltas(tr.Steps())
	if delivered != traced.Delivered {
		t.Errorf("delivered deltas sum %d != %d", delivered, traced.Delivered)
	}
	if injected != int64(len(pkts)) {
		t.Errorf("injected deltas sum %d != %d packets", injected, len(pkts))
	}
}

// TestBroadcastTraceConsistency: per-step informs sum to N(N-1) and the
// recorder sees the true flood link loads.
func TestBroadcastTraceConsistency(t *testing.T) {
	pt := permTopo(t, topology.MS, 2, 2)
	tr := obs.NewTrace(1)
	res, err := RunBroadcast(pt, AllPort, 0, tr)
	if err != nil {
		t.Fatal(err)
	}
	n := pt.NumNodes()
	_, delivered, _ := sumDeltas(tr.Steps())
	if want := n * (n - 1); delivered != want {
		t.Errorf("per-step informs sum %d != %d", delivered, want)
	}
	if res.Latency.Max != int64(res.Steps) {
		t.Errorf("latency max %d != steps %d", res.Latency.Max, res.Steps)
	}
	link := tr.Histogram("link_load")
	if link == nil || link.Sum() != res.TotalHops {
		t.Errorf("link_load sum != total hops")
	}
}

// TestOpenLoopTraceConsistency: the acceptance-criterion invariant — with
// any stats-every window, delivered/injected/dropped deltas sum to the run
// totals, and the final backlog matches.
func TestOpenLoopTraceConsistency(t *testing.T) {
	pt := permTopo(t, topology.MS, 2, 2)
	for _, every := range []int{1, 10, 7} {
		tr := obs.NewTrace(every)
		res, err := RunOpenLoop(pt, 0.3, 200, AllPort, 5, tr)
		if err != nil {
			t.Fatal(err)
		}
		injected, delivered, dropped := sumDeltas(tr.Steps())
		if delivered != res.Delivered || injected != res.Injected || dropped != res.Dropped {
			t.Errorf("every=%d: deltas (inj %d del %d drop %d) != totals (inj %d del %d drop %d)",
				every, injected, delivered, dropped, res.Injected, res.Delivered, res.Dropped)
		}
		steps := tr.Steps()
		if last := steps[len(steps)-1]; last.Backlog != res.Backlog {
			t.Errorf("every=%d: final backlog sample %d != result %d", every, last.Backlog, res.Backlog)
		}
		if res.Dropped == 0 {
			t.Errorf("every=%d: expected some self-destined drops at rate 0.3", every)
		}
		if res.Latency.Count != res.Delivered {
			t.Errorf("every=%d: latency count %d != delivered %d", every, res.Latency.Count, res.Delivered)
		}
		if res.Latency.P50 > res.Latency.P95 || res.Latency.P95 > res.Latency.P99 {
			t.Errorf("every=%d: percentiles disordered %+v", every, res.Latency)
		}
		if res.MeanLatency != res.Latency.Mean {
			t.Errorf("every=%d: MeanLatency %v != histogram mean %v", every, res.MeanLatency, res.Latency.Mean)
		}
	}
}

// TestOpenLoopUntracedUnchanged: a Trace in place of a nil recorder must
// not change the measured numbers (same RNG draw sequence).
func TestOpenLoopUntracedUnchanged(t *testing.T) {
	pt := permTopo(t, topology.MS, 2, 2)
	plain, err := RunOpenLoop(pt, 0.2, 150, SinglePort, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := RunOpenLoop(pt, 0.2, 150, SinglePort, 42, obs.NewTrace(1))
	if err != nil {
		t.Fatal(err)
	}
	if *plain != *traced {
		t.Errorf("tracing changed open-loop result:\n plain  %+v\n traced %+v", plain, traced)
	}
}
