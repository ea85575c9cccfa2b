package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCompareRule(t *testing.T) {
	row := func(name string, ratio, spread float64) Entry {
		return Entry{Name: name, Ratio: ratio, Spread: spread}
	}
	report := func(es ...Entry) *Report { return &Report{Schema: schema, Entries: es} }
	b := bound(0.05)
	for _, tc := range []struct {
		name     string
		old, cur *Report
		failed   int
	}{
		{"within its bound", report(row("a", 100, 0.05)), report(row("a", 100*b*0.99, 0.5)), 0},
		{"faster", report(row("a", 100, 0.05)), report(row("a", 50, 0.05)), 0},
		{"past its bound", report(row("a", 100, 0.05)), report(row("a", 100*b*1.01, 0)), 1},
		{"one of two past its bound", report(row("a", 100, 0.05), row("b", 10, 0.05)),
			report(row("a", 100, 0.05), row("b", 10*b*1.01, 0.05)), 1},
		{"only in the new report", report(row("a", 100, 0.05)), report(row("a", 100, 0.05), row("b", 1, 0)), 1},
		{"only in the baseline", report(row("a", 100, 0.05), row("b", 1, 0)), report(row("a", 100, 0.05)), 1},
		{"renamed", report(row("a", 100, 0.05)), report(row("b", 100, 0.05)), 2},
		{"bound capped at 3x, 2.9x passes", report(row("a", 100, 5)), report(row("a", 290, 0)), 0},
		{"bound capped at 3x, 3.1x fails", report(row("a", 100, 5)), report(row("a", 310, 0)), 1},
		{"zero baseline ratio fails", report(row("a", 0, 0.05)), report(row("a", 100, 0.05)), 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			if got := compare(tc.old, tc.cur, &out); got != tc.failed {
				t.Errorf("compare failed %d rows, want %d:\n%s", got, tc.failed, out.String())
			}
			if n := strings.Count(out.String(), "FAIL"); n != tc.failed {
				t.Errorf("%d FAIL lines, want %d:\n%s", n, tc.failed, out.String())
			}
		})
	}
}

func TestBound(t *testing.T) {
	if got := bound(0); got != 1+boundFloor {
		t.Errorf("bound(0) = %v, want %v", got, 1+boundFloor)
	}
	if lo, hi := bound(0.05), bound(0.1); !(lo < hi && hi < maxBound) {
		t.Errorf("bound(0.05) = %v, bound(0.1) = %v: want increasing below %v", lo, hi, maxBound)
	}
	if got := bound(5); got != maxBound {
		t.Errorf("bound(5) = %v, want the cap %v", got, maxBound)
	}
}

func TestReadReport(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name, body string
		ok         bool
	}{
		{"this schema", `{"schema": "scg-bench/v2", "benchmarks": [{"name": "a", "ratio": 1}]}`, true},
		{"another schema", `{"schema": "scg-bench/v1", "benchmarks": [{"name": "a", "ns_per_op": 1}]}`, false},
		{"no schema", `{"benchmarks": [{"name": "a", "ratio": 1}]}`, false},
		{"no rows", `{"schema": "scg-bench/v2", "benchmarks": []}`, false},
		{"not JSON", `schema: scg-bench/v2`, false},
	} {
		path := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "-")+".json")
		if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readReport(path); (err == nil) != tc.ok {
			t.Errorf("%s: readReport error %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	// The committed baseline is what -compare reads in CI.
	rep, err := readReport(filepath.Join("..", "..", "BENCH_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if n := compare(rep, rep, &out); n != 0 {
		t.Errorf("the committed baseline fails %d rows against itself:\n%s", n, out.String())
	}
}
