package scg

// Façade for the simulator observability layer: per-step tracing, latency
// and link-load histograms, phase timers, and run-record export.

import (
	"io"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// Observability vocabulary re-exported from the instrumentation package.
type (
	// Recorder receives per-step samples, typed events, and end-of-run
	// histograms from a simulation: every simulator task takes one as its
	// last argument. A nil Recorder means tracing off — the engines then
	// skip all instrumentation work.
	Recorder = obs.Recorder
	// Trace is the standard Recorder: it retains the step series (optionally
	// coalesced into fixed windows), the event log, and the histograms, and
	// assembles them into an exportable RunRecord.
	Trace = obs.Trace
	// StepSample is one per-step snapshot of the simulator (in-flight count,
	// injected/delivered/dropped deltas, queue depths, link-load imbalance).
	StepSample = obs.StepSample
	// TraceEvent is a typed simulator event (injection, delivery,
	// deadlock-detected, drain-start).
	TraceEvent = obs.Event
	// LatencyHistogram is a log-bucketed histogram with ≤25% bucket error,
	// used for per-packet latency and per-link load distributions.
	LatencyHistogram = obs.Histogram
	// LatencySummary carries count/mean/p50/p95/p99/max of a histogram; it
	// is embedded in SimResult and OpenLoopResult as the Latency field.
	LatencySummary = obs.Summary
	// RunRecord is a full exportable run: config, step series, events,
	// histograms, phase timings, and final summary.
	RunRecord = obs.RunRecord
	// PhaseTimer accumulates named wall-clock phases of a run.
	PhaseTimer = obs.PhaseTimer
)

// Trace event kinds.
const (
	EventInjection  = obs.EventInjection
	EventDelivery   = obs.EventDelivery
	EventDeadlock   = obs.EventDeadlock
	EventDrainStart = obs.EventDrainStart
)

// NewTrace returns a Trace recorder that coalesces the step series into
// windows of `every` steps (1 keeps every step). Deltas are summed across a
// window, peaks maxed, gauges last-valued, so per-step delivered counts
// always sum to the final total.
func NewTrace(every int) *Trace { return obs.NewTrace(every) }

// NewLatencyHistogram returns an empty log-bucketed histogram.
func NewLatencyHistogram() *LatencyHistogram { return obs.NewHistogram() }

// NewPhaseTimer returns a stopped phase timer; Start(name) opens a phase and
// closes the previous one.
func NewPhaseTimer() *PhaseTimer { return obs.NewPhaseTimer() }

// ReadRunRecord parses a run record back from its NDJSON encoding.
func ReadRunRecord(r io.Reader) (*RunRecord, error) { return obs.ReadNDJSON(r) }

// LinkLoadGini computes the Gini coefficient of a load vector (0 = perfectly
// balanced) — the imbalance statistic reported per step as LinkGini and in
// SimResult.LoadGini.
func LinkLoadGini(loads []int64) float64 { return metrics.LoadGini(loads) }
