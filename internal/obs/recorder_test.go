package obs

import "testing"

func TestTraceCoalescing(t *testing.T) {
	tr := NewTrace(10)
	var wantDelivered, wantInjected int64
	for step := 0; step < 25; step++ {
		s := StepSample{
			Step:      step,
			InFlight:  int64(100 - step),
			Injected:  2,
			Delivered: int64(step % 3),
			MaxQueue:  step % 7,
			MeanQueue: float64(step),
			LinkGini:  0.1,
		}
		wantDelivered += s.Delivered
		wantInjected += s.Injected
		tr.OnStep(s)
	}
	steps := tr.Steps() // flushes the partial third window
	if len(steps) != 3 {
		t.Fatalf("got %d windows, want 3 (10+10+5)", len(steps))
	}
	var gotDelivered, gotInjected int64
	for _, s := range steps {
		gotDelivered += s.Delivered
		gotInjected += s.Injected
	}
	if gotDelivered != wantDelivered || gotInjected != wantInjected {
		t.Errorf("coalesced deltas: delivered %d/%d injected %d/%d",
			gotDelivered, wantDelivered, gotInjected, wantInjected)
	}
	// Window labels carry the last step; gauges carry the last value; peaks
	// carry the max.
	if steps[0].Step != 9 || steps[1].Step != 19 || steps[2].Step != 24 {
		t.Errorf("window steps %d,%d,%d want 9,19,24", steps[0].Step, steps[1].Step, steps[2].Step)
	}
	if steps[0].InFlight != 91 || steps[0].MeanQueue != 9 {
		t.Errorf("gauges must be last-value: %+v", steps[0])
	}
	if steps[0].MaxQueue != 6 {
		t.Errorf("MaxQueue must be window max, got %d", steps[0].MaxQueue)
	}
}

func TestTraceEveryOneKeepsAllSteps(t *testing.T) {
	tr := NewTrace(0) // clamps to 1
	for step := 0; step < 5; step++ {
		tr.OnStep(StepSample{Step: step})
	}
	if got := len(tr.Steps()); got != 5 {
		t.Errorf("got %d samples, want 5", got)
	}
}

func TestTraceEventsAndHistograms(t *testing.T) {
	tr := NewTrace(1)
	tr.OnEvent(Event{Kind: EventInjection, Step: 0, Node: -1, Count: 10})
	tr.OnEvent(Event{Kind: EventDeadlock, Step: 7, Node: -1, Count: 3})
	if len(tr.Events()) != 2 || tr.Events()[1].Kind != EventDeadlock {
		t.Fatalf("events: %+v", tr.Events())
	}
	h := NewHistogram()
	h.Observe(4)
	tr.OnHistogram("latency", h)
	// Same-name histograms merge; the recorder must hold a copy, not alias.
	h.Observe(1000)
	h2 := NewHistogram()
	h2.Observe(8)
	tr.OnHistogram("latency", h2)
	got := tr.Histogram("latency")
	if got == nil || got.Count() != 2 || got.Max() != 8 {
		t.Errorf("merged latency histogram: %+v", got)
	}
	if tr.Histogram("missing") != nil {
		t.Error("missing histogram should be nil")
	}
	tr.OnHistogram("empty", nil) // must not panic
}
