// Package obs is the simulator's observability layer: per-step trace
// samples, typed events, log-bucketed histograms, wall-clock phase timers,
// and run-record exporters (NDJSON and CSV).
//
// The package is dependency-free (standard library only) and designed around
// a disabled-by-default fast path: every simulation engine accepts a
// Recorder that may be nil, and a nil recorder means the engine skips all
// sample assembly. Callers that want a trace pass *Trace (or any custom
// Recorder); callers that don't pass nil and pay nothing.
package obs

// StepSample is one synchronous simulator step as seen by a Recorder. Count
// fields (Injected, Delivered, Dropped) are deltas for the step; gauge
// fields (InFlight, Backlog, queue depths, link loads) are the state at the
// end of the step. MaxLinkLoad and LinkGini describe the cumulative per-link
// traffic distribution, so their time series shows how (im)balance develops
// as a run progresses — the dynamic form of the paper's "expected traffic is
// balanced on all links" claim.
type StepSample struct {
	// Step is the 0-based step index (with coalescing, the last step of the
	// window).
	Step int `json:"step"`
	// InFlight is the number of packets in the network after the step.
	InFlight int64 `json:"in_flight"`
	// Injected counts packets entering the network this step.
	Injected int64 `json:"injected"`
	// Delivered counts packets delivered this step.
	Delivered int64 `json:"delivered"`
	// Dropped counts injection attempts discarded this step (open-loop
	// traffic aimed at the injecting node itself).
	Dropped int64 `json:"dropped"`
	// Backlog is the number of packets queued in the network after the step
	// (open-loop engines; equals InFlight there).
	Backlog int64 `json:"backlog"`
	// MaxQueue is the deepest output queue after the step.
	MaxQueue int `json:"max_queue"`
	// MeanQueue is the mean output-queue depth after the step.
	MeanQueue float64 `json:"mean_queue"`
	// MaxLinkLoad is the largest cumulative per-link traversal count so far.
	MaxLinkLoad int64 `json:"max_link_load"`
	// LinkGini is the Gini coefficient of cumulative per-link traffic so far.
	LinkGini float64 `json:"link_gini"`
}

// EventKind labels a typed trace event.
type EventKind string

// Event kinds emitted by the simulation engines.
const (
	// EventInjection marks a batch of packets entering the network.
	EventInjection EventKind = "injection"
	// EventDelivery marks packets delivered in a step.
	EventDelivery EventKind = "delivery"
	// EventDeadlock marks a buffered-engine step in which nothing moved while
	// packets remained — the credit-cycle deadlock state.
	EventDeadlock EventKind = "deadlock-detected"
	// EventDrainStart marks the point where injection has finished and the
	// network is only draining.
	EventDrainStart EventKind = "drain-start"
)

// Event is a typed, timestamped (in steps) occurrence in a run.
type Event struct {
	Kind EventKind `json:"kind"`
	// Step is the step index the event occurred at.
	Step int `json:"step"`
	// Node is the node involved, or -1 when the event is network-wide.
	Node int64 `json:"node"`
	// Count is the number of packets involved.
	Count int64 `json:"count"`
}

// Recorder receives per-step samples, typed events, and end-of-run
// histograms from a simulation engine. Implementations must tolerate being
// called once per step on hot loops; engines guarantee they never call a nil
// Recorder (nil is the documented "tracing off" value).
type Recorder interface {
	// OnStep is called once per simulator step.
	OnStep(s StepSample)
	// OnEvent is called for each typed event.
	OnEvent(e Event)
	// OnHistogram delivers a named end-of-run distribution (for the packet
	// engines: "latency" in steps and "link_load" in traversals per link).
	OnHistogram(name string, h *Histogram)
}
