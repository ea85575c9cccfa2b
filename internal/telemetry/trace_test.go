package telemetry

import (
	"context"
	"testing"
	"time"
)

func TestTracePhases(t *testing.T) {
	start := time.Now()
	tr := AcquireTrace("req-1", start)
	defer tr.Release()
	if tr.id != "req-1" {
		t.Fatalf("ID %q", tr.id)
	}
	tr.Phase("decode")
	tr.Phase("cache")
	time.Sleep(2 * time.Millisecond)
	tr.Phase("encode")
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("%d spans, want 3: %+v", len(spans), spans)
	}
	names := []string{"decode", "cache", "encode"}
	for i, sp := range spans {
		if sp.Name != names[i] {
			t.Errorf("span %d named %q, want %q", i, sp.Name, names[i])
		}
		if sp.StartUS < 0 || sp.DurUS < 0 {
			t.Errorf("negative span fields %+v", sp)
		}
		if i > 0 && sp.StartUS < spans[i-1].StartUS {
			t.Errorf("spans out of order: %+v", spans)
		}
	}
	if spans[1].DurUS < 1000 {
		t.Errorf("cache span %+v should cover the 2ms sleep", spans[1])
	}
	// Spans is idempotent once closed.
	if again := tr.Spans(); len(again) != 3 {
		t.Errorf("second Spans call changed the timeline: %+v", again)
	}
}

// TestTraceSpanUnits pins the microsecond fields to the nanosecond ones:
// every stamp is one clock read, its µs offset that read truncated, so
// StartUS = StartNS/1000 and DurUS = (StartNS+DurNS)/1000 − StartNS/1000,
// the values the µs-only spans had. Consecutive spans share their stamp.
func TestTraceSpanUnits(t *testing.T) {
	tr := AcquireTrace("units", time.Now())
	defer tr.Release()
	for i := 0; i < 40; i++ {
		tr.Phase("p")
		// Phases from well under to a little over a microsecond, so the
		// truncation shows on both sides of a µs boundary.
		for end := time.Now().Add(time.Duration(i*50) * time.Nanosecond); time.Now().Before(end); {
		}
	}
	spans := tr.Spans()
	if len(spans) != 40 {
		t.Fatalf("%d spans, want 40", len(spans))
	}
	var subMicro int
	for i, sp := range spans {
		if sp.StartNS < 0 || sp.DurNS < 0 {
			t.Fatalf("span %d negative: %+v", i, sp)
		}
		if sp.StartUS != sp.StartNS/1000 {
			t.Errorf("span %d: StartUS %d, want StartNS/1000 = %d", i, sp.StartUS, sp.StartNS/1000)
		}
		if want := (sp.StartNS+sp.DurNS)/1000 - sp.StartNS/1000; sp.DurUS != want {
			t.Errorf("span %d: DurUS %d, want %d from %+v", i, sp.DurUS, want, sp)
		}
		if i > 0 && spans[i-1].StartNS+spans[i-1].DurNS != sp.StartNS {
			t.Errorf("span %d starts at %d ns, its predecessor ends at %d", i, sp.StartNS, spans[i-1].StartNS+spans[i-1].DurNS)
		}
		if sp.DurNS > 0 && sp.DurNS < 1000 {
			subMicro++
		}
	}
	if subMicro == 0 {
		t.Errorf("no span resolved below a microsecond: %+v", spans)
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	tr.Phase("x")
	tr.End()
	tr.Release()
	if tr.Spans() != nil {
		t.Fatal("nil trace must be inert")
	}
}

func TestTracePoolReuseKeepsCapacity(t *testing.T) {
	tr := AcquireTrace("a", time.Now())
	for i := 0; i < 12; i++ {
		tr.Phase("p")
	}
	tr.Release()
	tr2 := AcquireTrace("b", time.Now())
	defer tr2.Release()
	if len(tr2.Spans()) != 0 {
		t.Fatalf("recycled trace not reset: %+v", tr2.Spans())
	}
}

func TestWithTraceRoundTrip(t *testing.T) {
	tr := AcquireTrace("ctx-1", time.Now())
	defer tr.Release()
	ctx := WithTrace(context.Background(), tr)
	if got := TraceFrom(ctx); got != tr {
		t.Fatalf("TraceFrom = %p, want %p", got, tr)
	}
	if got := TraceFrom(context.Background()); got != nil {
		t.Fatalf("TraceFrom on bare context = %p, want nil", got)
	}
	// A nil trace can be attached; lookups stay nil-safe.
	ctx = WithTrace(context.Background(), nil)
	TraceFrom(ctx).Phase("noop")
}

func TestNewRequestID(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if a == b {
		t.Fatalf("consecutive IDs collide: %q", a)
	}
	for _, id := range []string{a, b} {
		if !ValidRequestID(id) {
			t.Errorf("generated ID %q fails validation", id)
		}
	}
	// The returned string is the only allocation: every request without a
	// client-supplied ID pays it.
	if allocs := testing.AllocsPerRun(100, func() { _ = NewRequestID() }); allocs != 1 {
		t.Errorf("NewRequestID allocates %.1f times, want 1", allocs)
	}
}

func TestValidRequestID(t *testing.T) {
	cases := map[string]bool{
		"":                        false,
		"abc-123":                 true,
		"ABC.def_1":               true,
		"has space":               false,
		"quote\"inside":           false,
		"back\\slash":             false,
		"ctrl\x01char":            false,
		"utf8-\xc3\xa9":           false,
		string(make([]byte, 200)): false,
	}
	for id, want := range cases {
		if got := ValidRequestID(id); got != want {
			t.Errorf("ValidRequestID(%q) = %v, want %v", id, got, want)
		}
	}
}
