package scg

// Façade for the simulator observability layer: the Trace recorder, which
// keeps per-step samples, events and histograms and exports run records.

import (
	"repro/internal/obs"
)

// Observability vocabulary re-exported from the instrumentation package.
type (
	// Trace is the standard Recorder: it retains the step series (optionally
	// coalesced into fixed windows), the event log, and the histograms, and
	// assembles them into an exportable RunRecord.
	Trace = obs.Trace
)

// NewTrace returns a Trace recorder that coalesces the step series into
// windows of `every` steps (1 keeps every step). Deltas are summed across a
// window, peaks maxed, gauges last-valued, so per-step delivered counts
// always sum to the final total.
func NewTrace(every int) *Trace { return obs.NewTrace(every) }
