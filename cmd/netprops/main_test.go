package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/figures"
	"repro/internal/server"
	"repro/internal/topology"
)

// TestBoundsParity holds netprops to every other surface that reports the
// same numbers, on every instance with k <= 7: D_L, α and the exact
// profile against scgd's /v1/metrics (profile resident); D_L, α and the
// exact profile against figures.CompareTable (which the root façade
// re-exports); the average-distance ratio against figures.AvgDistanceTable;
// and α against Table 1's measured column. Values must agree bit for bit:
// each surface takes its bounds from metrics.LowerBounds.
func TestBoundsParity(t *testing.T) {
	s := server.New(server.Config{SampleInterval: -1})
	defer s.Close()
	get := func(target string, out any) {
		t.Helper()
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("%s = %d: %s", target, w.Code, w.Body.String())
		}
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("%s: %v", target, err)
		}
	}

	reports := map[string]bounds{}
	for _, fam := range topology.AllFamilies() {
		ins, err := topology.EnumerateInstances(fam, 7)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range ins {
			nw, err := topology.New(in.Family, in.L, in.N)
			if err != nil {
				t.Fatal(err)
			}
			prof, err := nw.Graph().ExactProfile()
			if err != nil {
				t.Fatal(err)
			}
			rep := boundsReport(nw, prof)
			reports[nw.Name()] = rep

			q := fmt.Sprintf("family=%s&l=%d&n=%d", in.Family, in.L, in.N)
			var job server.ProfileResponse
			if get("/v1/profile?"+q, &job); job.Status != string(server.JobDone) {
				t.Fatalf("%s: profile job %s", nw.Name(), job.Status)
			}
			var m server.MetricsResponse
			get("/v1/metrics?"+q, &m)
			alphaExact := 0.0
			if m.AlphaExact != nil {
				alphaExact = *m.AlphaExact
			}
			if m.DL != rep.DL || alphaExact != rep.Alpha {
				t.Errorf("%s: /v1/metrics D_L %v α %v, netprops D_L %v α %v", nw.Name(), m.DL, alphaExact, rep.DL, rep.Alpha)
			}
			if m.ExactDiameter == nil || *m.ExactDiameter != prof.Eccentricity ||
				m.ExactAvgDistance == nil || *m.ExactAvgDistance != prof.Mean {
				t.Errorf("%s: /v1/metrics exact profile %v/%v, netprops %d/%v", nw.Name(), m.ExactDiameter, m.ExactAvgDistance, prof.Eccentricity, prof.Mean)
			}
		}
	}

	lookup := func(surface, name string) bounds {
		t.Helper()
		rep, ok := reports[name]
		if !ok {
			t.Fatalf("%s row %s is not among the k <= 7 instances", surface, name)
		}
		return rep
	}
	compared := 0
	for l := 2; l <= 6; l++ {
		for n := 1; l*n+1 <= 7; n++ {
			rows, err := figures.CompareTable(l, n, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range rows {
				rep := lookup("CompareTable", row.Network)
				// The table leaves a non-positive D_L out (0).
				if row.DL != math.Max(rep.DL, 0) || row.Alpha != rep.Alpha {
					t.Errorf("CompareTable(%d,%d) %s: D_L %v α %v, netprops D_L %v α %v", l, n, row.Network, row.DL, row.Alpha, rep.DL, rep.Alpha)
				}
				compared++
			}
			avg, err := figures.AvgDistanceTable(l, n)
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range avg {
				if rep := lookup("AvgDistanceTable", row.Network); row.Ratio != rep.AlphaAvg {
					t.Errorf("AvgDistanceTable(%d,%d) %s: ratio %v, netprops α-avg %v", l, n, row.Network, row.Ratio, rep.AlphaAvg)
				}
				compared++
			}
		}
	}
	t1, err := figures.Table1(7)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range t1 {
		rep, ok := reports[row.MeasuredAt]
		if !ok {
			continue // a torus or hypercube row, or none measured
		}
		if row.MeasuredAlpha != rep.Alpha {
			t.Errorf("Table1 %s at %s: α %v, netprops %v", row.Network, row.MeasuredAt, row.MeasuredAlpha, rep.Alpha)
		}
		compared++
	}
	if len(reports) < 100 || compared < 100 {
		t.Fatalf("compared %d rows over %d instances; the sweep lost its instances", compared, len(reports))
	}
}
