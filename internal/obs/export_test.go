package obs

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func sampleRecord() *RunRecord {
	tr := NewTrace(1)
	for step := 0; step < 4; step++ {
		tr.OnStep(StepSample{
			Step:        step,
			InFlight:    int64(10 - step),
			Injected:    int64(step + 1),
			Delivered:   int64(step),
			Dropped:     int64(step % 2),
			Backlog:     int64(3 * step),
			MaxQueue:    step,
			MeanQueue:   0.5 * float64(step),
			MaxLinkLoad: int64(2 * step),
			LinkGini:    0.25,
		})
	}
	tr.OnEvent(Event{Kind: EventInjection, Step: 0, Node: -1, Count: 10})
	tr.OnEvent(Event{Kind: EventDrainStart, Step: 0, Node: -1, Count: 10})
	h := NewHistogram()
	for _, v := range []int64{1, 2, 3, 17, 90} {
		h.Observe(v)
	}
	tr.OnHistogram("latency", h)
	rec := tr.Record(
		map[string]string{"network": "MS(2,2)", "task": "mnb"},
		map[string]float64{"steps": 4, "delivered": 6},
	)
	rec.Phases = []Phase{{Name: "simulate", Seconds: 0.125}}
	return rec
}

func TestNDJSONRoundTrip(t *testing.T) {
	rec := sampleRecord()
	var buf bytes.Buffer
	if err := rec.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// Every line is standalone JSON with a type field.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	wantLines := 1 + 4 + 2 + 1 + 1 + 1 // config + steps + events + hist + phase + summary
	if len(lines) != wantLines {
		t.Fatalf("got %d NDJSON lines, want %d:\n%s", len(lines), wantLines, buf.String())
	}
	for _, line := range lines {
		if !strings.Contains(line, `"type":`) {
			t.Fatalf("line missing type field: %s", line)
		}
	}
	got, err := ReadNDJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, rec)
	}
}

func TestReadNDJSONSkipsUnknownTypesAndBlankLines(t *testing.T) {
	in := `{"type":"config","config":{"a":"b"}}

{"type":"future-extension","payload":123}
{"type":"step","step":{"step":0,"in_flight":1,"injected":1,"delivered":0,"dropped":0,"backlog":0,"max_queue":0,"mean_queue":0,"max_link_load":0,"link_gini":0}}
`
	rec, err := ReadNDJSON(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Config["a"] != "b" || len(rec.Steps) != 1 {
		t.Errorf("parsed %+v", rec)
	}
	if _, err := ReadNDJSON(strings.NewReader("not json\n")); err == nil {
		t.Error("malformed line must error")
	}
}

func TestWriteCSV(t *testing.T) {
	rec := sampleRecord()
	var buf bytes.Buffer
	if err := rec.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1+len(rec.Steps) {
		t.Fatalf("got %d rows, want %d", len(rows), 1+len(rec.Steps))
	}
	if !reflect.DeepEqual(rows[0], CSVHeader) {
		t.Errorf("header %v", rows[0])
	}
	// The delivered column sums to the series total.
	col := -1
	for i, name := range rows[0] {
		if name == "delivered" {
			col = i
		}
	}
	var sum, want int64
	for _, row := range rows[1:] {
		v, err := strconv.ParseInt(row[col], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		sum += v
	}
	for _, s := range rec.Steps {
		want += s.Delivered
	}
	if sum != want {
		t.Errorf("CSV delivered sum %d != %d", sum, want)
	}
}

func TestPhaseTimer(t *testing.T) {
	pt := NewPhaseTimer()
	pt.Start("a")
	pt.Start("b")
	pt.Start("a") // accumulates into the existing "a" phase
	phases := pt.Phases()
	if len(phases) != 2 {
		t.Fatalf("got %d phases, want 2: %+v", len(phases), phases)
	}
	if phases[0].Name != "a" || phases[1].Name != "b" {
		t.Errorf("phase order %+v", phases)
	}
	for _, p := range phases {
		if p.Seconds < 0 {
			t.Errorf("negative phase time %+v", p)
		}
	}
	pt.Stop() // idle Stop must be a no-op
}

// ReadNDJSON parses a record previously written by WriteNDJSON. Lines with
// unknown types are skipped so readers stay compatible with future fields.
func ReadNDJSON(r io.Reader) (*RunRecord, error) {
	rec := &RunRecord{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var line ndjsonLine
		if err := json.Unmarshal(raw, &line); err != nil {
			return nil, fmt.Errorf("obs: ReadNDJSON: line %d: %v", lineNo, err)
		}
		switch line.Type {
		case "config":
			rec.Config = line.Config
		case "step":
			if line.Step != nil {
				rec.Steps = append(rec.Steps, *line.Step)
			}
		case "event":
			if line.Event != nil {
				rec.Events = append(rec.Events, *line.Event)
			}
		case "histogram":
			if line.Histogram != nil {
				rec.Histograms = append(rec.Histograms, *line.Histogram)
			}
		case "phase":
			if line.Phase != nil {
				rec.Phases = append(rec.Phases, *line.Phase)
			}
		case "summary":
			rec.Summary = line.Summary
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: ReadNDJSON: %v", err)
	}
	return rec, nil
}
