package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"testing"
	"time"
)

// smokeOptions runs a workload for a handful of ops in process.
func smokeOptions(t *testing.T, name string, trace bool) options {
	return options{workload: name, seed: 7, seconds: 1, trace: trace, dir: t.TempDir(), ops: 12}
}

type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestSmoke runs every workload end to end and traced for a handful of ops
// and checks that every metric BENCHMARK.json registers is printed with
// its unit, with no failed op.
func TestSmoke(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, wl := range f.Workloads {
		if _, ok := lookup(wl.Name); !ok {
			t.Fatalf("BENCHMARK.json workload %q is not a workload of the benchmark", wl.Name)
		}
	}
	if len(f.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json registers %d workloads, the benchmark has %d", len(f.Workloads), len(specs))
	}
	for _, spec := range specs {
		t.Run(spec.name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				o := smokeOptions(t, spec.name, trace)
				wr, err := runWorker(spec, o)
				if err != nil {
					t.Fatal(err)
				}
				fails, err := spec.verifyRun(o, []*workerResult{wr})
				if err != nil {
					t.Fatal(err)
				}
				var res *result
				want := f.EndToEnd
				if trace {
					want = f.PerLayer
					if res, err = tracedResult(spec, []*workerResult{wr}, len(fails)); err != nil {
						t.Fatal(err)
					}
				} else {
					res = endToEndResult([]*workerResult{wr}, len(fails))
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < o.ops {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d: %v %v", trace, res.Correct, res.Attempted, res.Failed, wr.Fails, fails)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics printed, BENCHMARK.json registers %d", trace, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("trace=%v: metric %s printed as %+v (present %v), want unit %q", trace, m.Name, got, ok, m.Unit)
					}
				}
				if _, err := json.Marshal(res); err != nil {
					t.Errorf("trace=%v: result does not encode: %v", trace, err)
				}
			}
		})
	}
}

// tamper rewrites in transit the body of every response to one of paths,
// or of every response when paths is nil.
type tamper struct {
	base  http.RoundTripper
	paths map[string]bool
	fn    func([]byte) []byte
}

func (tp tamper) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := tp.base.RoundTrip(r)
	if err != nil || (tp.paths != nil && !tp.paths[r.URL.RequestURI()]) {
		return resp, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(tp.fn(b)))
	return resp, nil
}

// TestTamperedAnswersFail checks that a route answer altered in transit
// counts as a failed op and makes the run incorrect, instead of being
// timed as a success.
func TestTamperedAnswersFail(t *testing.T) {
	for _, tc := range []struct {
		name, workload string
		fn             func([]byte) []byte
	}{
		{"unverified", "route-hot", func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"verified": true`), []byte(`"verified": false`), 1)
		}},
		{"no exact distance", "route-hot", func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"exact_distance"`), []byte(`"exact_distancf"`), 1)
		}},
		{"hops beyond bound", "query-mix", func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"hops": `), []byte(`"hops": 9`), 1)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec, _ := lookup(tc.workload)
			o := smokeOptions(t, tc.workload, false)
			w, err := spec.make(o, o.ops)
			if err != nil {
				t.Fatal(err)
			}
			_, routes := w.layerInputs()
			paths := map[string]bool{}
			for _, op := range routes {
				paths[op.path] = true
			}
			o.tamper = func(rt http.RoundTripper) http.RoundTripper { return tamper{rt, paths, tc.fn} }
			wr, err := runWorker(spec, o)
			if err != nil {
				t.Fatal(err)
			}
			fails, err := spec.verifyRun(o, []*workerResult{wr})
			if err != nil {
				t.Fatal(err)
			}
			res := endToEndResult([]*workerResult{wr}, len(fails))
			if res.Correct || res.Failed != len(routes) || len(wr.LatNS) != o.ops-len(routes) {
				t.Fatalf("%d tampered route answers: correct=%v failed=%d timed=%d", len(routes), res.Correct, res.Failed, len(wr.LatNS))
			}
		})
	}
}

// TestDistanceCheckCatchesWrongAnswer feeds the parent-side check an exact
// distance that disagrees with the library table.
func TestDistanceCheckCatchesWrongAnswer(t *testing.T) {
	spec, _ := lookup("route-hot")
	o := smokeOptions(t, "route-hot", false)
	wr, err := runWorker(spec, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(wr.Pairs) == 0 {
		t.Fatal("no sampled pairs")
	}
	wr.Pairs[0].Exact++
	fails, err := spec.verifyRun(o, []*workerResult{wr})
	if err != nil {
		t.Fatal(err)
	}
	if len(fails) != 1 {
		t.Fatalf("got %d failures for one wrong distance: %v", len(fails), fails)
	}
}

// TestHostScale checks that a worker's times are scaled to the nominal
// host by its own null round trip: a worker whose reference ran twice as
// slow as nominal reports half its raw latency and set-up time and twice
// its raw rate, and one at nominal speed reports its raw figures.
func TestHostScale(t *testing.T) {
	for _, tc := range []struct {
		nullNS, scale float64
	}{{nullNominalNS, 1}, {2 * nullNominalNS, 0.5}} {
		wr := &workerResult{Ops: 4, WallNS: int64(time.Second), SetupS: 1, NullNS: tc.nullNS}
		for i := 1; i <= 4; i++ {
			wr.LatNS = append(wr.LatNS, int64(i)*1000)
		}
		m := endToEndResult([]*workerResult{wr}, 0).Metrics
		if m["p50_us"].Value != 2*tc.scale || m["setup_s"].Value != tc.scale || m["throughput_ops"].Value != 4/tc.scale {
			t.Errorf("null round trip %v ns: p50 %v us, setup %v s, throughput %v/s; want %v, %v, %v",
				tc.nullNS, m["p50_us"].Value, m["setup_s"].Value, m["throughput_ops"].Value, 2*tc.scale, tc.scale, 4/tc.scale)
		}
	}
}

// TestP99OverWorkers checks where p99_us comes from: the median of the
// workers' own p99s when each has minRunOps samples, so one worker's slow
// tail does not set the run's, and the pooled samples when workers are
// smaller.
func TestP99OverWorkers(t *testing.T) {
	run := func(n, slow int) []*workerResult {
		var ws []*workerResult
		for w := 0; w < 3; w++ {
			wr := &workerResult{Ops: n, WallNS: int64(time.Second), NullNS: nullNominalNS}
			for i := 1; i <= n; i++ {
				ns := int64(i) * 1000
				if w == 2 && i > n-slow {
					ns = int64(time.Second)
				}
				wr.LatNS = append(wr.LatNS, ns)
			}
			ws = append(ws, wr)
		}
		return ws
	}
	if got := endToEndResult(run(minRunOps, 50), 0).Metrics["p99_us"].Value; got != 990 {
		t.Errorf("p99 over %d-op workers, one with a slow tail: %v us, want the median worker's 990", minRunOps, got)
	}
	if got := endToEndResult(run(144, 10), 0).Metrics["p99_us"].Value; got != 1e6 {
		t.Errorf("p99 over 144-op workers, one with ten slow ops: %v us, want the pooled 1e6", got)
	}
}
