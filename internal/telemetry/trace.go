package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// PhaseSpan is one entry of a request's span timeline: a named phase with
// its start offset from the request start and its duration, in whole
// microseconds and in nanoseconds. Both come from the same stamps: a
// stamp's microsecond offset is its nanosecond offset truncated, so
// StartUS = StartNS/1000 and DurUS is the difference of the truncated end
// and start. A warm route's phases are each under a microsecond, which
// only the nanosecond fields resolve. Spans are sequential — the serving
// path is a pipeline (admission -> decode -> cache -> build -> solve ->
// encode), so ending one phase starts the next and the timeline reads as a
// flame graph with one lane.
type PhaseSpan struct {
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// Trace is a request-scoped span timeline. Traces are pooled: the serving
// middleware acquires one per request when a slow log is configured and
// releases it after the slow-log decision, so steady-state tracing
// performs no allocations (the spans slice keeps its capacity across
// requests — internal/server's TestServeAllocs holds a server with a slow
// log to the same ceiling as one without).
//
// A nil *Trace is the documented "tracing off" value: every method no-ops,
// mirroring the nil-Recorder discipline of internal/obs.
type Trace struct {
	id    string
	start time.Time
	spans []PhaseSpan
	open  bool // spans[len(spans)-1] is still running
}

var tracePool = sync.Pool{New: func() any {
	return &Trace{spans: make([]PhaseSpan, 0, 16)}
}}

// AcquireTrace returns a pooled trace for one request, anchored at start.
func AcquireTrace(id string, start time.Time) *Trace {
	t := tracePool.Get().(*Trace)
	t.id = id
	t.start = start
	t.spans = t.spans[:0]
	t.open = false
	return t
}

// Release resets t and returns it to the pool. The caller must not use t
// (or any spans slice obtained from it) afterwards.
func (t *Trace) Release() {
	if t == nil {
		return
	}
	t.id = ""
	tracePool.Put(t)
}

// Phase ends the open span (if any) and starts a new one named name.
// Stamps are offsets from the trace's start, each one monotonic clock read
// (time.Since); time.Now would read the wall clock too.
func (t *Trace) Phase(name string) {
	if t == nil {
		return
	}
	at := time.Since(t.start).Nanoseconds()
	t.closeAt(at)
	t.spans = append(t.spans, PhaseSpan{Name: name, StartUS: at / 1000, StartNS: at})
	t.open = true
}

// End closes the open span without starting another.
func (t *Trace) End() {
	if t == nil || !t.open {
		return
	}
	t.closeAt(time.Since(t.start).Nanoseconds())
}

// closeAt closes the open span, if any, at offset at (ns from the start).
func (t *Trace) closeAt(at int64) {
	if !t.open {
		return
	}
	sp := &t.spans[len(t.spans)-1]
	sp.DurNS = at - sp.StartNS
	sp.DurUS = at/1000 - sp.StartUS
	t.open = false
}

// Spans closes the open span and returns the timeline. The slice aliases
// the trace's storage: read it before Release and do not retain it.
func (t *Trace) Spans() []PhaseSpan {
	if t == nil {
		return nil
	}
	t.End()
	return t.spans
}

// traceKey is the context key type for the request trace.
type traceKey struct{}

// WithTrace attaches t to ctx; a nil t is attached as-is. The serving
// middleware hands each handler its trace directly, so a context carries
// one only where work leaves the handler: a cold cache build or a wait on
// another request's build, and a profile job.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the trace attached to ctx, or nil. The nil result is
// usable: all Trace methods tolerate a nil receiver.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// Request IDs: a per-process random prefix plus a sequence number —
// "4f1c9a2b-17". Unique across restarts (fresh prefix) and trivially
// sortable within one process, at the cost of one small string allocation
// and no syscalls on the serving path.
var (
	reqIDPrefix = newReqIDPrefix()
	reqIDSeq    atomic.Int64
)

func newReqIDPrefix() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		// No entropy source: fall back to the PID so IDs stay distinct
		// between concurrently started processes.
		return "p" + strconv.Itoa(os.Getpid())
	}
	return hex.EncodeToString(b[:])
}

// NewRequestID returns a fresh X-Request-Id value. The ID is assembled in
// a stack buffer, so the returned string is its only allocation.
func NewRequestID() string {
	var buf [40]byte
	b := append(buf[:0], reqIDPrefix...)
	b = append(b, '-')
	b = strconv.AppendInt(b, reqIDSeq.Add(1), 10)
	return string(b)
}

// maxRequestIDLen bounds accepted client-supplied IDs.
const maxRequestIDLen = 128

// ValidRequestID reports whether a client-supplied X-Request-Id is safe to
// propagate: non-empty, bounded, and printable ASCII without spaces, so it
// can be embedded in NDJSON logs and response headers verbatim.
func ValidRequestID(s string) bool {
	if s == "" || len(s) > maxRequestIDLen {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] <= ' ' || s[i] > '~' || s[i] == '"' || s[i] == '\\' {
			return false
		}
	}
	return true
}
