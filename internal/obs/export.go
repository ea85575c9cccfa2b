package obs

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"io"
	"strconv"
)

// HistogramRecord is one exported distribution: exact aggregates, quantile
// estimates, and the non-empty buckets.
type HistogramRecord struct {
	Name    string   `json:"name"`
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Min     int64    `json:"min"`
	Max     int64    `json:"max"`
	P50     float64  `json:"p50"`
	P95     float64  `json:"p95"`
	P99     float64  `json:"p99"`
	Buckets []Bucket `json:"buckets"`
}

// Phase is one wall-clock phase timing in an exported record.
type Phase struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// RunRecord is a complete, self-describing record of one simulation run:
// configuration, the per-step series, typed events, end-of-run histograms,
// wall-clock phase timings, and final scalar aggregates.
type RunRecord struct {
	Config     map[string]string  `json:"config,omitempty"`
	Steps      []StepSample       `json:"steps,omitempty"`
	Events     []Event            `json:"events,omitempty"`
	Histograms []HistogramRecord  `json:"histograms,omitempty"`
	Phases     []Phase            `json:"phases,omitempty"`
	Summary    map[string]float64 `json:"summary,omitempty"`
}

// ndjsonLine is the one-object-per-line envelope of the NDJSON format. Type
// is one of "config", "step", "event", "histogram", "phase", "summary".
type ndjsonLine struct {
	Type      string             `json:"type"`
	Config    map[string]string  `json:"config,omitempty"`
	Step      *StepSample        `json:"step,omitempty"`
	Event     *Event             `json:"event,omitempty"`
	Histogram *HistogramRecord   `json:"histogram,omitempty"`
	Phase     *Phase             `json:"phase,omitempty"`
	Summary   map[string]float64 `json:"summary,omitempty"`
}

// WriteNDJSON writes the record as newline-delimited JSON: a config line,
// one line per step sample, per event, per histogram, and per phase, then a
// summary line. The format is self-describing (each line carries a "type"
// field) and streams through line-oriented tools (jq, grep, sort).
func (r *RunRecord) WriteNDJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	emit := func(line ndjsonLine) error { return enc.Encode(line) }
	if r.Config != nil {
		if err := emit(ndjsonLine{Type: "config", Config: r.Config}); err != nil {
			return err
		}
	}
	for i := range r.Steps {
		if err := emit(ndjsonLine{Type: "step", Step: &r.Steps[i]}); err != nil {
			return err
		}
	}
	for i := range r.Events {
		if err := emit(ndjsonLine{Type: "event", Event: &r.Events[i]}); err != nil {
			return err
		}
	}
	for i := range r.Histograms {
		if err := emit(ndjsonLine{Type: "histogram", Histogram: &r.Histograms[i]}); err != nil {
			return err
		}
	}
	for i := range r.Phases {
		if err := emit(ndjsonLine{Type: "phase", Phase: &r.Phases[i]}); err != nil {
			return err
		}
	}
	if r.Summary != nil {
		if err := emit(ndjsonLine{Type: "summary", Summary: r.Summary}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// CSVHeader is the column order of WriteCSV.
var CSVHeader = []string{
	"step", "in_flight", "injected", "delivered", "dropped", "backlog",
	"max_queue", "mean_queue", "max_link_load", "link_gini",
}

// WriteCSV writes the per-step series as CSV with CSVHeader columns —
// the plot-ready view of the trace (config, events, and histograms are
// NDJSON-only).
func (r *RunRecord) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(CSVHeader); err != nil {
		return err
	}
	for _, s := range r.Steps {
		row := []string{
			strconv.Itoa(s.Step),
			strconv.FormatInt(s.InFlight, 10),
			strconv.FormatInt(s.Injected, 10),
			strconv.FormatInt(s.Delivered, 10),
			strconv.FormatInt(s.Dropped, 10),
			strconv.FormatInt(s.Backlog, 10),
			strconv.Itoa(s.MaxQueue),
			strconv.FormatFloat(s.MeanQueue, 'g', -1, 64),
			strconv.FormatInt(s.MaxLinkLoad, 10),
			strconv.FormatFloat(s.LinkGini, 'g', -1, 64),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
