package pool

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestGateTryEnter(t *testing.T) {
	g := NewGate(2)
	if cap(g.slots) != 2 {
		t.Fatalf("capacity %d, want 2", cap(g.slots))
	}
	if !g.TryEnter() || !g.TryEnter() {
		t.Fatal("TryEnter failed with free slots")
	}
	if g.TryEnter() {
		t.Fatal("TryEnter succeeded beyond capacity")
	}
	if len(g.slots) != 2 {
		t.Fatalf("slots in use %d, want 2", len(g.slots))
	}
	g.Leave()
	if !g.TryEnter() {
		t.Fatal("TryEnter failed after Leave")
	}
	g.Leave()
	g.Leave()
}

func TestGateEnterContext(t *testing.T) {
	g := NewGate(1)
	if err := g.Enter(context.Background()); err != nil {
		t.Fatalf("Enter on free gate: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := g.Enter(ctx); err == nil {
		t.Fatal("Enter on full gate with expiring context returned nil")
	}
	g.Leave()
	if err := g.Enter(context.Background()); err != nil {
		t.Fatalf("Enter after Leave: %v", err)
	}
	g.Leave()
}

func TestGateUnbalancedLeavePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Leave without acquire did not panic")
		}
	}()
	NewGate(1).Leave()
}

func TestGateBoundsConcurrency(t *testing.T) {
	const cap, rounds = 3, 200
	g := NewGate(cap)
	var mu sync.Mutex
	peak, cur := 0, 0
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if !g.TryEnter() {
					continue
				}
				mu.Lock()
				cur++
				if cur > peak {
					peak = cur
				}
				mu.Unlock()
				mu.Lock()
				cur--
				mu.Unlock()
				g.Leave()
			}
		}()
	}
	wg.Wait()
	if peak > cap {
		t.Fatalf("observed %d concurrent holders, gate capacity %d", peak, cap)
	}
}

func TestGateZeroCapacityClampsToOne(t *testing.T) {
	g := NewGate(0)
	if cap(g.slots) != 1 {
		t.Fatalf("capacity %d, want 1", cap(g.slots))
	}
}
