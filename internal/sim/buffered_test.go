package sim

import (
	"testing"

	"repro/internal/topology"
)

func TestBufferedMatchesUnboundedUnderLightLoad(t *testing.T) {
	pt := permTopo(t, topology.MS, 2, 2)
	pkts := PermutationRouting(pt.NumNodes(), 5)
	unb, err := RunUnicast(pt, pkts, AllPort, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := RunUnicastBuffered(pt, pkts, AllPort, 64, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if buf.Delivered != unb.Delivered {
		t.Fatalf("delivered %d vs %d", buf.Delivered, unb.Delivered)
	}
	// With effectively infinite buffers the completion time matches up to
	// the one-step NIC injection delay of the buffered model (packets start
	// in source queues rather than pre-loaded into link buffers).
	if buf.Steps > unb.Steps+1 || buf.Steps < unb.Steps {
		t.Errorf("buffered(64) %d steps vs unbounded %d", buf.Steps, unb.Steps)
	}
	if buf.TotalHops != unb.TotalHops {
		t.Errorf("hops differ: %d vs %d", buf.TotalHops, unb.TotalHops)
	}
}

func TestBufferedTightBuffersSlowerNotWrong(t *testing.T) {
	pt := permTopo(t, topology.MS, 2, 2)
	pkts := RandomRouting(pt.NumNodes(), 600, 11)
	loose, err := RunUnicastBuffered(pt, pkts, AllPort, 32, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := RunUnicastBuffered(pt, pkts, AllPort, 1, 1<<16, nil)
	if err != nil {
		// Deadlock with capacity 1 is a legitimate outcome; the engine must
		// say so explicitly rather than timing out.
		if !containsDeadlock(err.Error()) {
			t.Fatalf("unexpected failure: %v", err)
		}
		t.Logf("capacity-1 run deadlocked as flow control predicts: %v", err)
		return
	}
	if tight.Delivered != loose.Delivered {
		t.Fatalf("delivered %d vs %d", tight.Delivered, loose.Delivered)
	}
	if tight.Steps < loose.Steps {
		t.Errorf("tight buffers (%d steps) beat loose buffers (%d steps)", tight.Steps, loose.Steps)
	}
	if tight.MaxQueueLen > 1 {
		t.Errorf("capacity-1 run reached queue length %d", tight.MaxQueueLen)
	}
	t.Logf("buffered: cap=32 %d steps, cap=1 %d steps", loose.Steps, tight.Steps)
}

func containsDeadlock(s string) bool {
	for i := 0; i+8 <= len(s); i++ {
		if s[i:i+8] == "deadlock" {
			return true
		}
	}
	return false
}

func TestBufferedValidation(t *testing.T) {
	pt := permTopo(t, topology.MS, 2, 2)
	if _, err := RunUnicastBuffered(pt, nil, AllPort, 0, 0, nil); err == nil {
		t.Error("capacity 0 accepted")
	}
	if _, err := RunUnicastBuffered(pt, []Packet{{Src: -1, Dst: 0}}, AllPort, 4, 0, nil); err == nil {
		t.Error("bad packet accepted")
	}
	res, err := RunUnicastBuffered(pt, []Packet{{Src: 2, Dst: 2}}, AllPort, 4, 0, nil)
	if err != nil || res.Delivered != 1 {
		t.Fatalf("self packet: %v %v", res, err)
	}
}

// TestBufferedQueueBoundRespected: MaxQueueLen never exceeds the capacity.
func TestBufferedQueueBoundRespected(t *testing.T) {
	pt := permTopo(t, topology.CompleteRS, 3, 1)
	pkts := TotalExchange(pt.NumNodes())
	for _, cap := range []int{2, 4, 8} {
		res, err := RunUnicastBuffered(pt, pkts, AllPort, cap, 1<<16, nil)
		if err != nil {
			if containsDeadlock(err.Error()) {
				t.Logf("cap=%d: deadlock (acceptable with blocking flow control)", cap)
				continue
			}
			t.Fatal(err)
		}
		if res.MaxQueueLen > cap {
			t.Errorf("cap=%d: queue reached %d", cap, res.MaxQueueLen)
		}
		if res.Delivered != int64(len(pkts)) {
			t.Errorf("cap=%d: delivered %d of %d", cap, res.Delivered, len(pkts))
		}
	}
}
