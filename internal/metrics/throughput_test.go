package metrics

import (
	"fmt"
	"math"
	"testing"
)

func TestPinLimitedThroughput(t *testing.T) {
	th, err := PinLimitedThroughput(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if th != 2 {
		t.Errorf("throughput = %v, want 2", th)
	}
	if _, err := PinLimitedThroughput(0, 4); err == nil {
		t.Error("pins=0 accepted")
	}
	if _, err := PinLimitedThroughput(8, 0); err == nil {
		t.Error("avgDist=0 accepted")
	}
}

func TestCompareThroughput(t *testing.T) {
	// The §4.2 claim in miniature: at equal pin budgets a network with
	// smaller average distance sustains more throughput.
	rows, err := CompareThroughput(16, map[string]float64{
		"MS(3,2)":   8.05,
		"hypercube": 6.5,
		"torus2d":   35.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]float64{}
	for _, r := range rows {
		byName[r.Name] = r.Throughput
		if math.Abs(r.Throughput-16/r.AvgDist) > 1e-12 {
			t.Errorf("%s: throughput inconsistent", r.Name)
		}
	}
	if !(byName["hypercube"] > byName["MS(3,2)"] && byName["MS(3,2)"] > byName["torus2d"]) {
		t.Errorf("ordering broken: %v", byName)
	}
	if _, err := CompareThroughput(16, map[string]float64{"bad": -1}); err == nil {
		t.Error("negative avg accepted")
	}
}

// ThroughputComparison holds the normalized throughput of one network under
// a shared pin budget.
type ThroughputComparison struct {
	Name       string
	AvgDist    float64
	Throughput float64
}

// CompareThroughput evaluates PinLimitedThroughput for several networks at
// a common pin budget; callers pass measured (or bounded) average distances.
func CompareThroughput(pins float64, entries map[string]float64) ([]ThroughputComparison, error) {
	out := make([]ThroughputComparison, 0, len(entries))
	for name, avg := range entries {
		th, err := PinLimitedThroughput(pins, avg)
		if err != nil {
			return nil, fmt.Errorf("metrics: CompareThroughput: %s: %v", name, err)
		}
		out = append(out, ThroughputComparison{Name: name, AvgDist: avg, Throughput: th})
	}
	return out, nil
}
