package obs

import (
	"testing"
	"time"
)

func TestPhaseTimerIdle(t *testing.T) {
	pt := NewPhaseTimer()
	if got := pt.Phases(); len(got) != 0 {
		t.Fatalf("idle timer reports %d phases, want none", len(got))
	}
	pt.Stop() // stopping an idle timer is a no-op, not a panic
	if got := pt.Phases(); len(got) != 0 {
		t.Fatalf("after redundant Stop: %d phases, want none", len(got))
	}
}

func TestPhaseTimerSinglePhase(t *testing.T) {
	pt := NewPhaseTimer()
	pt.Start("build")
	time.Sleep(2 * time.Millisecond)
	got := pt.Phases()
	if len(got) != 1 || got[0].Name != "build" {
		t.Fatalf("phases = %+v, want one named build", got)
	}
	if got[0].Seconds <= 0 {
		t.Fatalf("phase duration %v, want > 0", got[0].Seconds)
	}
}

func TestPhaseTimerStartEndsPrevious(t *testing.T) {
	pt := NewPhaseTimer()
	pt.Start("build")
	pt.Start("run") // must end "build" implicitly
	pt.Start("export")
	got := pt.Phases()
	if len(got) != 3 {
		t.Fatalf("phases = %+v, want 3", got)
	}
	// First-start order, not completion or alphabetical order.
	for i, want := range []string{"build", "run", "export"} {
		if got[i].Name != want {
			t.Fatalf("phase %d is %q, want %q (first-start order)", i, got[i].Name, want)
		}
	}
}

func TestPhaseTimerRepeatedNamesAccumulate(t *testing.T) {
	pt := NewPhaseTimer()
	pt.Start("step")
	time.Sleep(time.Millisecond)
	pt.Start("gap")
	pt.Start("step") // re-entering a named phase adds to its total
	time.Sleep(time.Millisecond)
	got := pt.Phases()
	if len(got) != 2 {
		t.Fatalf("phases = %+v, want 2 distinct names", got)
	}
	if got[0].Name != "step" || got[1].Name != "gap" {
		t.Fatalf("order = [%s %s], want [step gap]", got[0].Name, got[1].Name)
	}
	if got[0].Seconds < (2 * time.Millisecond).Seconds() {
		t.Fatalf("step accumulated %v s, want at least both visits", got[0].Seconds)
	}
}

func TestPhaseTimerStopIsIdempotent(t *testing.T) {
	pt := NewPhaseTimer()
	pt.Start("only")
	pt.Stop()
	first := pt.Phases()[0].Seconds
	pt.Stop()
	pt.Stop()
	if again := pt.Phases()[0].Seconds; again != first {
		t.Fatalf("redundant Stop changed the total: %v -> %v", first, again)
	}
}

func TestPhaseTimerPhasesEndsCurrent(t *testing.T) {
	pt := NewPhaseTimer()
	pt.Start("open")
	got := pt.Phases()
	if len(got) != 1 {
		t.Fatalf("phases = %+v, want the in-flight phase closed and reported", got)
	}
	// The phase was closed: more time passing must not grow it.
	before := got[0].Seconds
	time.Sleep(2 * time.Millisecond)
	if after := pt.Phases()[0].Seconds; after != before {
		t.Fatalf("closed phase kept accumulating: %v -> %v", before, after)
	}
}
