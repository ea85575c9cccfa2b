package server

import (
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// AccessRecord is one NDJSON access-log line: the request-level counterpart
// of internal/obs run records, one JSON object per line so the file streams
// into the same jq/column tooling.
type AccessRecord struct {
	// Time is the request start in RFC3339Nano.
	Time string `json:"ts"`
	// ReqID is the X-Request-Id echoed to the client — the join key between
	// this record, the slow log, and job snapshots.
	ReqID string `json:"req_id,omitempty"`
	// Method and Path identify the request; Endpoint is the logical handler
	// name used by /statsz ("/v1/route", ...).
	Method   string `json:"method"`
	Path     string `json:"path"`
	Endpoint string `json:"endpoint"`
	// Status is the HTTP status written; DurationUS the service time in
	// microseconds.
	Status     int    `json:"status"`
	DurationUS int64  `json:"dur_us"`
	Remote     string `json:"remote,omitempty"`
}

// accessLog serializes AccessRecords onto one writer. A nil *accessLog is
// the documented "logging off" value, mirroring the nil-Recorder discipline
// of internal/obs.
type accessLog struct {
	mu  sync.Mutex
	enc *json.Encoder
}

func newAccessLog(w io.Writer) *accessLog {
	if w == nil {
		return nil
	}
	return &accessLog{enc: json.NewEncoder(w)}
}

func (a *accessLog) log(r *http.Request, endpoint string, status int, start time.Time, d time.Duration, reqID string) {
	if a == nil {
		return
	}
	rec := AccessRecord{
		Time:       start.UTC().Format(time.RFC3339Nano),
		ReqID:      reqID,
		Method:     r.Method,
		Path:       r.URL.Path,
		Endpoint:   endpoint,
		Status:     status,
		DurationUS: d.Microseconds(),
		Remote:     r.RemoteAddr,
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	// A failed write (closed file, full disk) must not fail the request;
	// the next scrape of /statsz still has the aggregate view.
	_ = a.enc.Encode(rec) //scglint:lockheld the mutex exists to serialize NDJSON lines onto one writer; the write is the critical section
}

// SlowRecord is one NDJSON slow-log line: the request's identity plus its
// span timeline, so a single grep for a request ID yields where the time
// went (admission, decode, cache wait, topology build, BFS, solve, encode).
// Profile jobs emit one too, with the submitting request's ID and the
// pseudo-endpoint "job:/v1/profile".
type SlowRecord struct {
	Time     string `json:"ts"`
	ReqID    string `json:"req_id"`
	Endpoint string `json:"endpoint"`
	Method   string `json:"method,omitempty"`
	Status   int    `json:"status,omitempty"`
	// DurationUS is the total service time; Phases breaks it down.
	DurationUS int64                 `json:"dur_us"`
	Phases     []telemetry.PhaseSpan `json:"phases,omitempty"`
}

// slowLog serializes SlowRecords onto one writer; nil means disabled.
type slowLog struct {
	mu  sync.Mutex
	enc *json.Encoder
}

func newSlowLog(w io.Writer) *slowLog {
	if w == nil {
		return nil
	}
	return &slowLog{enc: json.NewEncoder(w)}
}

func (sl *slowLog) log(reqID, endpoint, method string, status int, start time.Time, d time.Duration, phases []telemetry.PhaseSpan) {
	if sl == nil {
		return
	}
	rec := SlowRecord{
		Time:       start.UTC().Format(time.RFC3339Nano),
		ReqID:      reqID,
		Endpoint:   endpoint,
		Method:     method,
		Status:     status,
		DurationUS: d.Microseconds(),
		Phases:     phases,
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	_ = sl.enc.Encode(rec) //scglint:lockheld the mutex exists to serialize NDJSON lines onto one writer; the write is the critical section
}
