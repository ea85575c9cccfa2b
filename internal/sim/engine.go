package sim

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/perm"
)

// PortModel selects the paper's communication model (§5): single-port nodes
// drive one outgoing link per step; all-port nodes drive every link each
// step.
type PortModel int

const (
	AllPort PortModel = iota
	SinglePort
)

func (m PortModel) String() string {
	if m == SinglePort {
		return "single-port"
	}
	return "all-port"
}

// Packet is one unicast message.
type Packet struct {
	Src, Dst int64
}

// Result aggregates a simulation run.
type Result struct {
	// Steps is the completion time in synchronous steps.
	Steps int
	// Delivered counts messages (or broadcast informs) completed.
	Delivered int64
	// TotalHops counts link traversals.
	TotalHops int64
	// MaxLinkLoad is the largest traversal count over any directed link —
	// the balance indicator the paper's conclusion highlights ("the expected
	// traffic is balanced on all links").
	MaxLinkLoad int64
	// AvgLinkLoad is TotalHops divided by the number of directed links.
	AvgLinkLoad float64
	// MaxQueueLen is the deepest output queue observed.
	MaxQueueLen int
	// LoadGini is the Gini coefficient of per-link traffic (0 = perfectly
	// balanced links, →1 = all traffic on few links): the quantitative form
	// of the paper's "expected traffic is balanced on all links" claim.
	LoadGini float64
	// Latency summarizes the per-packet delivery-latency distribution in
	// steps (injection to delivery, inclusive), measured by a log-bucketed
	// histogram.
	Latency obs.Summary
}

func (r *Result) String() string {
	return fmt.Sprintf("steps=%d delivered=%d hops=%d maxLink=%d avgLink=%.2f maxQueue=%d gini=%.3f latency[%s]",
		r.Steps, r.Delivered, r.TotalHops, r.MaxLinkLoad, r.AvgLinkLoad, r.MaxQueueLen, r.LoadGini, r.Latency)
}

// flight is an in-transit packet: the precomputed link path, the index of
// the next link to traverse, and the step it entered at.
type flight struct {
	path []int
	pos  int
	born int
}

// arrival is a packet that crossed a link this step, at node.
type arrival struct {
	node int64
	f    flight
}

// queueStats scans the per-link output queues and returns the deepest queue
// and the mean depth — the per-step gauge pair of a StepSample.
func queueStats[T any](queues [][][]T) (maxQ int, mean float64) {
	links := 0
	total := 0
	for _, node := range queues {
		for _, q := range node {
			links++
			total += len(q)
			maxQ = max(maxQ, len(q))
		}
	}
	if links > 0 {
		mean = float64(total) / float64(links)
	}
	return maxQ, mean
}

// loadSample flattens cumulative per-link loads into buf and returns the
// reused buffer, the maximum load, and the Gini coefficient. Per step it
// runs only when a recorder is attached — it is O(links·log links).
func loadSample(loads [][]int64, buf []int64) (out []int64, maxLoad int64, gini float64) {
	buf = buf[:0]
	for _, row := range loads {
		for _, v := range row {
			maxLoad = max(maxLoad, v)
			buf = append(buf, v)
		}
	}
	return buf, maxLoad, metrics.LoadGini(buf)
}

// recordHistograms hands rec, if any, the run's "latency" histogram and
// its per-link traffic distribution, "link_load".
func recordHistograms(rec obs.Recorder, lat *obs.Histogram, loads [][]int64) {
	if rec == nil {
		return
	}
	h := obs.NewHistogram()
	for _, row := range loads {
		for _, v := range row {
			h.Observe(v)
		}
	}
	rec.OnHistogram("latency", lat)
	rec.OnHistogram("link_load", h)
}

// transmit offers a node's non-empty output queues q to send: every link
// in index order (all-port), or, single-port, links from the node's
// rotating pointer *rot until send accepts one, which moves the pointer
// past it. It reports whether send accepted any.
func transmit[T any](model PortModel, q [][]T, rot *int, send func(link int) bool) (moved bool) {
	for probe := range q {
		link := probe
		if model == SinglePort {
			link = (*rot + probe) % len(q)
		}
		if len(q[link]) > 0 && send(link) {
			moved = true
			if model == SinglePort {
				*rot = (link + 1) % len(q)
				break
			}
		}
	}
	return moved
}

// traffic is what a run injects: every packet of pkts at step 0, or, when
// rate > 0, a packet per node per step with probability rate, to a
// uniform random destination drawn from rng.
type traffic struct {
	pkts []Packet
	rate float64
	rng  *perm.RNG
}

// network is the state of one unicast run. Its output queues are unbounded
// when bufCap is 0; otherwise each holds bufCap packets (credit flow
// control) and a packet waits in its source's NIC queue until the first
// queue of its path has a credit.
type network struct {
	topo     Topology
	model    PortModel
	bufCap   int
	queues   [][][]flight // per node, per link: the output queue
	nic      [][]flight   // credit-limited runs: per node, the NIC queue
	space    [][]int      // credit-limited runs: credits left this step
	loads    [][]int64    // per node, per link: packets sent
	rot      []int        // single-port arbitration pointers
	arrivals []arrival
	lat      *obs.Histogram

	steps    int
	inFlight int64
	// injected counts packets that entered an output queue during a step
	// (a Bernoulli injection, or a NIC's credit-limited one); a drain's
	// packets that enter unbounded queues before step 0 are announced by
	// the injection event instead.
	injected, delivered, dropped, hops int64
	maxQueue                           int
}

// enqueue appends f to node's output queue for its next link.
func (nw *network) enqueue(node int64, f flight) {
	q := &nw.queues[node][f.path[f.pos]]
	*q = append(*q, f)
	nw.maxQueue = max(nw.maxQueue, len(*q))
}

// admit hands f to node's NIC: with credits it waits in the NIC queue,
// otherwise it enters its first output queue at once.
func (nw *network) admit(node int64, f flight) {
	nw.inFlight++
	if nw.nic != nil {
		nw.nic[node] = append(nw.nic[node], f)
		return
	}
	nw.enqueue(node, f)
}

// send moves the head of node's queue on link to the link's far end,
// unless credits are on and its next queue there has none left this step
// (a delivery needs no credit). It reports whether the packet moved.
func (nw *network) send(node int64, link int) bool {
	q := &nw.queues[node][link]
	f := (*q)[0]
	next := nw.topo.Neighbor(node, link)
	f.pos++
	if nw.space != nil && f.pos < len(f.path) {
		credit := &nw.space[next][f.path[f.pos]]
		if *credit <= 0 {
			return false
		}
		*credit--
	}
	*q = (*q)[1:]
	nw.loads[node][link]++
	nw.hops++
	nw.arrivals = append(nw.arrivals, arrival{node: next, f: f})
	return true
}

// step advances the network one synchronous step: every node transmits,
// then (with credits) injects from its NIC queue while its first-hop
// queues have credits, which do not count against the port budget (the
// NIC is a separate input); then the packets that crossed a link are
// delivered or queued for their next. Credits are fixed by the queues'
// occupancy at the start of the step, so space freed within a step is not
// reused in it (conservative, deadlock-prone exactly like real wormhole
// buffers). step reports whether any packet moved.
func (nw *network) step(step int) (moved bool) {
	nw.arrivals = nw.arrivals[:0]
	if nw.space != nil {
		for u, row := range nw.space {
			for link := range row {
				row[link] = nw.bufCap - len(nw.queues[u][link])
			}
		}
	}
	for node := range nw.queues {
		u := int64(node)
		if transmit(nw.model, nw.queues[node], &nw.rot[node], func(link int) bool { return nw.send(u, link) }) {
			moved = true
		}
		for nw.nic != nil && len(nw.nic[node]) > 0 {
			f := nw.nic[node][0]
			credit := &nw.space[node][f.path[0]]
			if *credit <= 0 {
				break
			}
			*credit--
			nw.nic[node] = nw.nic[node][1:]
			nw.enqueue(u, f)
			nw.injected++
			moved = true
		}
	}
	for _, a := range nw.arrivals {
		if a.f.pos < len(a.f.path) {
			nw.enqueue(a.node, a.f)
			continue
		}
		nw.delivered++
		nw.inFlight--
		nw.lat.Observe(int64(step - a.f.born + 1))
	}
	nw.steps = step + 1
	return moved
}

// simulate is the simulator's one unicast step loop, run by RunUnicast,
// RunUnicastBuffered and RunOpenLoop. A run of pkts (all entering at step
// 0) drains until every packet is delivered, fails after maxSteps steps
// (0 means 2^20), and, with credits, reports a deadlock when a step moves
// nothing; a Bernoulli run lasts maxSteps steps. name prefixes the errors.
//
// rec (nil: tracing off) receives one StepSample per step, whose Injected,
// Delivered and Dropped deltas sum to the run totals, and the end-of-run
// "latency" and "link_load" histograms. A drain also reports the injection
// and drain-start events at step 0 and one delivery event per step that
// delivered; a Bernoulli run reports its Backlog gauge and, at steady
// state, no events. A deadlock reports an EventDeadlock (with the stuck
// in-flight count) and the histograms before the error returns.
func simulate(name string, topo Topology, model PortModel, tr traffic, bufCap, maxSteps int, rec obs.Recorder) (*network, error) {
	n, deg := topo.NumNodes(), topo.Degree()
	nw := &network{
		topo:   topo,
		model:  model,
		bufCap: bufCap,
		queues: make([][][]flight, n),
		loads:  make([][]int64, n),
		rot:    make([]int, n),
		lat:    obs.NewHistogram(),
	}
	for i := range nw.queues {
		nw.queues[i] = make([][]flight, deg)
		nw.loads[i] = make([]int64, deg)
	}
	if bufCap > 0 {
		nw.nic = make([][]flight, n)
		nw.space = make([][]int, n)
		for i := range nw.space {
			nw.space[i] = make([]int, deg)
		}
	}
	drain := tr.rate == 0
	if maxSteps <= 0 {
		maxSteps = 1 << 20
	}
	for _, p := range tr.pkts {
		if p.Src < 0 || p.Src >= n || p.Dst < 0 || p.Dst >= n {
			return nil, fmt.Errorf("sim: %s: packet %v out of range", name, p)
		}
		if p.Src == p.Dst {
			nw.delivered++
			continue
		}
		path, err := topo.Path(p.Src, p.Dst)
		if err != nil {
			return nil, err
		}
		if len(path) == 0 {
			return nil, fmt.Errorf("sim: %s: empty path for %d->%d", name, p.Src, p.Dst)
		}
		nw.admit(p.Src, flight{path: path})
	}
	if drain && rec != nil {
		// All packets enter at time zero, so the whole run is a drain.
		rec.OnEvent(obs.Event{Kind: obs.EventInjection, Step: 0, Node: -1, Count: nw.inFlight})
		rec.OnEvent(obs.Event{Kind: obs.EventDrainStart, Step: 0, Node: -1, Count: nw.inFlight})
	}
	var prevInjected, prevDelivered, prevDropped int64 // the first sample counts self-deliveries
	var giniBuf []int64
	var stuck error
	for step := 0; !drain || nw.inFlight > 0; step++ {
		if step == maxSteps {
			if drain {
				return nil, fmt.Errorf("sim: %s: %d packets undelivered after %d steps", name, nw.inFlight, maxSteps)
			}
			break
		}
		if !drain {
			for node := int64(0); node < n; node++ {
				if tr.rng.Float64() >= tr.rate {
					continue
				}
				dst := int64(tr.rng.Intn(int(n)))
				if dst == node {
					nw.dropped++
					continue
				}
				path, err := topo.Path(node, dst)
				if err != nil {
					return nil, err
				}
				if len(path) == 0 {
					nw.dropped++
					continue
				}
				nw.admit(node, flight{path: path, born: step})
				nw.injected++
			}
		}
		moved := nw.step(step)
		if rec != nil {
			s := obs.StepSample{
				Step:      step,
				InFlight:  nw.inFlight,
				Injected:  nw.injected - prevInjected,
				Delivered: nw.delivered - prevDelivered,
				Dropped:   nw.dropped - prevDropped,
			}
			s.MaxQueue, s.MeanQueue = queueStats(nw.queues)
			giniBuf, s.MaxLinkLoad, s.LinkGini = loadSample(nw.loads, giniBuf)
			if !drain {
				s.Backlog = nw.inFlight
			} else if s.Delivered > 0 {
				rec.OnEvent(obs.Event{Kind: obs.EventDelivery, Step: step, Node: -1, Count: s.Delivered})
			}
			rec.OnStep(s)
			prevInjected, prevDelivered, prevDropped = nw.injected, nw.delivered, nw.dropped
		}
		if !moved && nw.inFlight > 0 {
			if rec != nil {
				rec.OnEvent(obs.Event{Kind: obs.EventDeadlock, Step: step, Node: -1, Count: nw.inFlight})
			}
			stuck = fmt.Errorf("sim: %s: deadlock at step %d with %d packets in flight (buffer capacity %d)", name, step, nw.inFlight, bufCap)
			break
		}
	}
	recordHistograms(rec, nw.lat, nw.loads)
	return nw, stuck
}

// unicastResult summarizes a finished unicast run.
func unicastResult(nw *network, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	res := &Result{
		Steps:       nw.steps,
		Delivered:   nw.delivered,
		TotalHops:   nw.hops,
		AvgLinkLoad: float64(nw.hops) / float64(len(nw.loads)*nw.topo.Degree()),
		MaxQueueLen: nw.maxQueue,
		Latency:     nw.lat.Summary(),
	}
	_, res.MaxLinkLoad, res.LoadGini = loadSample(nw.loads, nil)
	return res, nil
}

// RunUnicast injects all packets at time zero and advances the network
// until every packet is delivered or maxSteps elapse (0 means 2^20).
// Deterministic: FIFO queues, links served in index order, single-port
// arbitration by a per-node rotating pointer. rec (nil means tracing off)
// receives every step; see simulate.
func RunUnicast(topo Topology, pkts []Packet, model PortModel, maxSteps int, rec obs.Recorder) (*Result, error) {
	return unicastResult(simulate("RunUnicast", topo, model, traffic{pkts: pkts}, 0, maxSteps, rec))
}

// RunUnicastBuffered is RunUnicast with finite output queues: a packet may
// only advance when the next hop's target queue has a free slot (credit
// flow control). Source injection queues are unbounded (packets wait at the
// NIC), but once in the network a packet occupies a buffer slot until it
// moves. With cyclic buffer dependencies this can deadlock — the classic
// motivation for virtual channels — and the engine detects that state
// (nothing moved, packets remain) and reports it instead of spinning,
// after an EventDeadlock to rec (nil means tracing off).
func RunUnicastBuffered(topo Topology, pkts []Packet, model PortModel, bufCap, maxSteps int, rec obs.Recorder) (*Result, error) {
	if bufCap < 1 {
		return nil, fmt.Errorf("sim: RunUnicastBuffered: buffer capacity %d must be >= 1", bufCap)
	}
	return unicastResult(simulate("RunUnicastBuffered", topo, model, traffic{pkts: pkts}, bufCap, maxSteps, rec))
}

// TotalExchange builds the all-to-all personalized workload: one packet for
// every ordered pair of distinct nodes.
func TotalExchange(n int64) []Packet {
	pkts := make([]Packet, 0, n*(n-1))
	for s := int64(0); s < n; s++ {
		for d := int64(0); d < n; d++ {
			if s != d {
				pkts = append(pkts, Packet{Src: s, Dst: d})
			}
		}
	}
	return pkts
}

// RandomRouting builds `count` packets with uniform random sources and
// destinations (src != dst), deterministically from the seed.
func RandomRouting(n int64, count int, seed uint64) []Packet {
	rng := perm.NewRNG(seed)
	pkts := make([]Packet, 0, count)
	for i := 0; i < count; i++ {
		s := int64(rng.Intn(int(n)))
		d := int64(rng.Intn(int(n)))
		for d == s {
			d = int64(rng.Intn(int(n)))
		}
		pkts = append(pkts, Packet{Src: s, Dst: d})
	}
	return pkts
}

// PermutationRouting builds a random permutation workload: every node sends
// exactly one packet and receives exactly one.
func PermutationRouting(n int64, seed uint64) []Packet {
	rng := perm.NewRNG(seed)
	dst := make([]int64, n)
	for i := range dst {
		dst[i] = int64(i)
	}
	for i := int(n) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		dst[i], dst[j] = dst[j], dst[i]
	}
	pkts := make([]Packet, 0, n)
	for s := int64(0); s < n; s++ {
		if dst[s] != s {
			pkts = append(pkts, Packet{Src: s, Dst: dst[s]})
		}
	}
	return pkts
}
