package sim

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/topology"
)

// conservationTopos returns the two baselines the conservation suite runs on:
// the paper's MS(2,2) super Cayley graph and an 8-node ring for contrast.
func conservationTopos(t *testing.T) []Topology {
	t.Helper()
	ring, err := NewTorusTopology(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	return []Topology{permTopo(t, topology.MS, 2, 2), ring}
}

// injectionCount extracts the count of the run-level injection event.
func injectionCount(t *testing.T, events []obs.Event) int64 {
	t.Helper()
	for _, e := range events {
		if e.Kind == obs.EventInjection {
			return e.Count
		}
	}
	t.Fatal("no injection event in trace")
	return 0
}

// TestUnicastConservation: in the closed-loop engine every packet announced
// by the injection event is, at every traced step, either already delivered
// or still in flight — packets are never created or destroyed mid-run.
func TestUnicastConservation(t *testing.T) {
	for _, topo := range conservationTopos(t) {
		t.Run(topo.Name(), func(t *testing.T) {
			// TotalExchange has no self-addressed packets, so the delivered
			// deltas count network deliveries only.
			pkts := TotalExchange(topo.NumNodes())
			tr := obs.NewTrace(1)
			res, err := RunUnicast(topo, pkts, AllPort, 0, tr)
			if err != nil {
				t.Fatal(err)
			}
			injected := injectionCount(t, tr.Events())
			if injected != int64(len(pkts)) {
				t.Fatalf("injection event count %d, want %d", injected, len(pkts))
			}
			var cumDelivered int64
			for _, s := range tr.Steps() {
				cumDelivered += s.Delivered
				if got := cumDelivered + s.InFlight; got != injected {
					t.Fatalf("step %d: delivered %d + in-flight %d = %d, want injected %d",
						s.Step, cumDelivered, s.InFlight, got, injected)
				}
			}
			if cumDelivered != res.Delivered {
				t.Errorf("delivered deltas sum %d != result %d", cumDelivered, res.Delivered)
			}
			if last := tr.Steps()[len(tr.Steps())-1]; last.InFlight != 0 {
				t.Errorf("final in-flight %d != 0", last.InFlight)
			}
		})
	}
}

// TestBufferedConservation: the finite-buffer engine additionally reports
// NIC-to-network injections as per-step deltas; the announced workload must
// still equal delivered + in-flight at every step, and every packet must
// cross the NIC exactly once.
func TestBufferedConservation(t *testing.T) {
	for _, topo := range conservationTopos(t) {
		t.Run(topo.Name(), func(t *testing.T) {
			pkts := TotalExchange(topo.NumNodes())
			tr := obs.NewTrace(1)
			res, err := RunUnicastBuffered(topo, pkts, AllPort, 64, 0, tr)
			if err != nil {
				t.Fatal(err)
			}
			injected := injectionCount(t, tr.Events())
			if injected != int64(len(pkts)) {
				t.Fatalf("injection event count %d, want %d", injected, len(pkts))
			}
			var cumDelivered, cumInjected int64
			for _, s := range tr.Steps() {
				cumDelivered += s.Delivered
				cumInjected += s.Injected
				if got := cumDelivered + s.InFlight; got != injected {
					t.Fatalf("step %d: delivered %d + in-flight %d = %d, want injected %d",
						s.Step, cumDelivered, s.InFlight, got, injected)
				}
				// A packet is delivered no earlier than the step after it
				// crossed the NIC, so deliveries can never outrun injections.
				if cumDelivered > cumInjected {
					t.Fatalf("step %d: delivered %d > NIC-injected %d", s.Step, cumDelivered, cumInjected)
				}
			}
			if cumInjected != injected {
				t.Errorf("NIC injection deltas sum %d != workload %d", cumInjected, injected)
			}
			if cumDelivered != res.Delivered {
				t.Errorf("delivered deltas sum %d != result %d", cumDelivered, res.Delivered)
			}
		})
	}
}

// TestBroadcastConservation: in the flood engine a "packet" is one
// (message, node) inform; the N·(N-1) total must equal delivered + remaining
// at every traced step.
func TestBroadcastConservation(t *testing.T) {
	for _, topo := range conservationTopos(t) {
		t.Run(topo.Name(), func(t *testing.T) {
			tr := obs.NewTrace(1)
			res, err := RunBroadcast(topo, AllPort, 0, tr)
			if err != nil {
				t.Fatal(err)
			}
			n := topo.NumNodes()
			if got := injectionCount(t, tr.Events()); got != n {
				t.Fatalf("injection event count %d, want %d source messages", got, n)
			}
			total := n * (n - 1)
			var cumDelivered int64
			for _, s := range tr.Steps() {
				cumDelivered += s.Delivered
				if got := cumDelivered + s.InFlight; got != total {
					t.Fatalf("step %d: informed %d + remaining %d = %d, want %d",
						s.Step, cumDelivered, s.InFlight, got, total)
				}
			}
			if cumDelivered != total || res.Delivered != total {
				t.Errorf("informs: deltas %d, result %d, want %d", cumDelivered, res.Delivered, total)
			}
		})
	}
}

// TestOpenLoopConservation: under Bernoulli injection every attempt is
// accounted for at every traced step — it entered the network (and was later
// delivered or is still in flight) or was dropped at the NIC; drops never
// enter the network.
func TestOpenLoopConservation(t *testing.T) {
	for _, topo := range conservationTopos(t) {
		t.Run(topo.Name(), func(t *testing.T) {
			tr := obs.NewTrace(1)
			res, err := RunOpenLoop(topo, 0.3, 400, AllPort, 11, tr)
			if err != nil {
				t.Fatal(err)
			}
			var cumInjected, cumDelivered, cumDropped int64
			for _, s := range tr.Steps() {
				cumInjected += s.Injected
				cumDelivered += s.Delivered
				cumDropped += s.Dropped
				attempts := cumInjected + cumDropped
				if got := cumDelivered + cumDropped + s.InFlight; got != attempts {
					t.Fatalf("step %d: delivered %d + dropped %d + in-flight %d = %d, want attempts %d",
						s.Step, cumDelivered, cumDropped, s.InFlight, got, attempts)
				}
				if s.Backlog != s.InFlight {
					t.Fatalf("step %d: backlog %d != in-flight %d", s.Step, s.Backlog, s.InFlight)
				}
			}
			if cumInjected != res.Injected || cumDelivered != res.Delivered || cumDropped != res.Dropped {
				t.Errorf("delta sums (%d,%d,%d) != result totals (%d,%d,%d)",
					cumInjected, cumDelivered, cumDropped, res.Injected, res.Delivered, res.Dropped)
			}
			// At the horizon the backlog closes the books exactly.
			if res.Injected != res.Delivered+res.Backlog {
				t.Errorf("injected %d != delivered %d + backlog %d", res.Injected, res.Delivered, res.Backlog)
			}
		})
	}
}

// TestConservationSingleQueueRing exercises the same invariant under
// single-port arbitration on the ring, where queueing is heaviest.
func TestConservationSingleQueueRing(t *testing.T) {
	ring, err := NewTorusTopology(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	pkts := TotalExchange(ring.NumNodes())
	tr := obs.NewTrace(1)
	if _, err := RunUnicast(ring, pkts, SinglePort, 0, tr); err != nil {
		t.Fatal(err)
	}
	injected := injectionCount(t, tr.Events())
	var cum int64
	for _, s := range tr.Steps() {
		cum += s.Delivered
		if cum+s.InFlight != injected {
			t.Fatalf("step %d: conservation violated: %d + %d != %d", s.Step, cum, s.InFlight, injected)
		}
	}
	if cum != injected {
		t.Errorf("only %d of %d packets delivered", cum, injected)
	}
}
