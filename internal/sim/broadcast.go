package sim

import (
	"fmt"

	"repro/internal/obs"
)

// RunBroadcast simulates a multinode broadcast (MNB): every node owns one
// message that must reach every other node. Messages flood: when a node
// learns a message it schedules a copy on each outgoing link; receivers
// discard duplicates. Each directed link carries one message per step
// (all-port) and single-port nodes additionally send on only one link per
// step. This is the task of [7, 29, 30] that §1 and §5 argue super Cayley
// graphs execute asymptotically optimally.
//
// rec (nil means tracing off) sees one delivery per node learning one
// foreign message, so the per-step delivered deltas sum to N·(N-1). It
// also sees the true per-link flood loads ("link_load" histogram and
// per-step MaxLinkLoad/LinkGini), which the aggregate Result rounds into a
// uniform estimate.
func RunBroadcast(topo Topology, model PortModel, maxSteps int, rec obs.Recorder) (*Result, error) {
	n := topo.NumNodes()
	deg := topo.Degree()
	if n > 1<<13 {
		return nil, fmt.Errorf("sim: RunBroadcast: N=%d too large for the O(N²) flood state", n)
	}
	if maxSteps <= 0 {
		maxSteps = 1 << 20
	}
	nn := int(n)
	// informed[msg*nn + node]
	informed := make([]bool, nn*nn)
	// queues[node][link] holds message ids awaiting transmission.
	queues := make([][][]int32, n)
	loads := make([][]int64, n)
	for i := range queues {
		queues[i] = make([][]int32, deg)
		loads[i] = make([]int64, deg)
	}
	res := &Result{}
	informs := int64(nn) * int64(nn-1) // every node learns every foreign message
	learn := func(node int64, msg int32) {
		if informed[int(msg)*nn+int(node)] {
			return
		}
		informed[int(msg)*nn+int(node)] = true
		if int64(msg) != node {
			res.Delivered++
		}
		for link := 0; link < deg; link++ {
			queues[node][link] = append(queues[node][link], msg)
			res.MaxQueueLen = max(res.MaxQueueLen, len(queues[node][link]))
		}
	}
	for v := int64(0); v < n; v++ {
		learn(v, int32(v))
	}
	lat := obs.NewHistogram()
	var prevDelivered int64
	var giniBuf []int64
	if rec != nil {
		rec.OnEvent(obs.Event{Kind: obs.EventInjection, Step: 0, Node: -1, Count: n})
	}
	rot := make([]int, n)
	type heard struct {
		node int64
		msg  int32
	}
	var arrivals []heard
	for step := 0; res.Delivered < informs; step++ {
		if step >= maxSteps {
			return nil, fmt.Errorf("sim: RunBroadcast: %d informs missing after %d steps", informs-res.Delivered, maxSteps)
		}
		arrivals = arrivals[:0]
		for node := int64(0); node < n; node++ {
			q := queues[node]
			transmit(model, q, &rot[node], func(link int) bool {
				msg := q[link][0]
				q[link] = q[link][1:]
				res.TotalHops++
				loads[node][link]++
				arrivals = append(arrivals, heard{node: topo.Neighbor(node, link), msg: msg})
				return true
			})
		}
		for _, a := range arrivals {
			learn(a.node, a.msg)
		}
		res.Steps = step + 1
		delta := res.Delivered - prevDelivered
		if delta > 0 {
			lat.ObserveN(int64(step+1), delta)
		}
		if rec != nil {
			s := obs.StepSample{Step: step, InFlight: informs - res.Delivered, Delivered: delta}
			s.MaxQueue, s.MeanQueue = queueStats(queues)
			giniBuf, s.MaxLinkLoad, s.LinkGini = loadSample(loads, giniBuf)
			if delta > 0 {
				rec.OnEvent(obs.Event{Kind: obs.EventDelivery, Step: step, Node: -1, Count: delta})
			}
			rec.OnStep(s)
		}
		prevDelivered = res.Delivered
	}
	res.AvgLinkLoad = float64(res.TotalHops) / float64(n*int64(deg))
	// Flooding sends each message over (almost) every link, so per-link
	// loads are uniform by construction; report the average as the max too.
	res.MaxLinkLoad = int64(res.AvgLinkLoad + 0.9999)
	res.Latency = lat.Summary()
	recordHistograms(rec, lat, loads)
	return res, nil
}

// MNBLowerBound returns the trivial lower bound on MNB completion time: each
// node must receive N-1 messages over at most `inDegree` incoming links
// (all-port) or 1 (single-port).
func MNBLowerBound(n int64, inDegree int, model PortModel) int64 {
	msgs := n - 1
	if model == SinglePort || inDegree < 1 {
		return msgs
	}
	per := int64(inDegree)
	return (msgs + per - 1) / per
}
