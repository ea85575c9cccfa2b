package ipg

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/bag"
	"repro/internal/mcmp"
	"repro/internal/metrics"
	"repro/internal/topology"
)

func TestMeasureIntercluster(t *testing.T) {
	rules := sipRules(3, 2, bag.TranspositionNucleus, bag.SwapSuper)
	g, err := NewSIP(3, 2, rules)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := g.MeasureIntercluster()
	if err != nil {
		t.Fatal(err)
	}
	// Nucleus orbit on SIP(3,2): positions 1..3 hold {4, c, c}; the two
	// same-color balls are indistinguishable, so the orbit has 3 states.
	if prof.ClusterSize != 3 {
		t.Errorf("cluster size %d, want 3", prof.ClusterSize)
	}
	if prof.InterclusterDegree != 2 {
		t.Errorf("intercluster degree %d", prof.InterclusterDegree)
	}
	if prof.AvgInterclusterDistance <= 0 || prof.AvgInterclusterDistance > float64(prof.InterclusterDiameter) {
		t.Errorf("inconsistent profile %+v", prof)
	}
	// Must respect the packing lower bound.
	order, _ := g.sig.Order()
	lb, err := metrics.InterclusterDL(float64(order), float64(prof.ClusterSize), prof.InterclusterDegree)
	if err != nil {
		t.Fatal(err)
	}
	if float64(prof.InterclusterDiameter) < lb {
		t.Errorf("intercluster diameter %d below bound %.3f", prof.InterclusterDiameter, lb)
	}
	t.Logf("SIP(3,2): M=%d d_i=%d D_inter=%d avg=%.3f (bound %.3f)",
		prof.ClusterSize, prof.InterclusterDegree, prof.InterclusterDiameter,
		prof.AvgInterclusterDistance, lb)
}

// TestSIPInterclusterCloserToBoundThanMS quantifies the §4.3 point: the
// quotient's intercluster diameter sits closer to its packing lower bound
// than the Cayley graph's does at the same (l,n), because the quotient's
// cluster is a larger fraction of a smaller network.
func TestSIPInterclusterCloserToBoundThanMS(t *testing.T) {
	rules := sipRules(3, 2, bag.TranspositionNucleus, bag.SwapSuper)
	g, err := NewSIP(3, 2, rules)
	if err != nil {
		t.Fatal(err)
	}
	sip, err := g.MeasureIntercluster()
	if err != nil {
		t.Fatal(err)
	}
	order, _ := g.sig.Order()
	sipLB, err := metrics.InterclusterDL(float64(order), float64(sip.ClusterSize), sip.InterclusterDegree)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := topology.NewMS(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	msProf, err := mcmp.Measure(ms.Graph(), 1)
	if err != nil {
		t.Fatal(err)
	}
	msLB, err := metrics.InterclusterDL(float64(ms.Nodes()), float64(msProf.ClusterSize), msProf.InterclusterDegree)
	if err != nil {
		t.Fatal(err)
	}
	sipRatio := float64(sip.InterclusterDiameter) / sipLB
	msRatio := float64(msProf.InterclusterDiameter) / msLB
	if math.IsNaN(sipRatio) || math.IsNaN(msRatio) {
		t.Fatal("NaN ratios")
	}
	t.Logf("intercluster diameter / lower bound: SIP(3,2) %.3f (D=%d, LB=%.2f), MS(3,2) %.3f (D=%d, LB=%.2f)",
		sipRatio, sip.InterclusterDiameter, sipLB, msRatio, msProf.InterclusterDiameter, msLB)
	if sipRatio > msRatio+0.25 {
		t.Errorf("SIP ratio %.3f is not competitive with MS ratio %.3f", sipRatio, msRatio)
	}
}

func TestMeasureInterclusterRejectsNucleusOnly(t *testing.T) {
	sig, _ := NewSignature([]int{2, 2, 1})
	g, err := NewGraph("nucleus-only", sig, sipRules(2, 2, bag.TranspositionNucleus, bag.SwapSuper).Generators()[:2])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.MeasureIntercluster(); err == nil {
		t.Error("nucleus-only graph accepted")
	}
}

// TestSIPProfilePinned pins SIP(3,2;transposition/swap)'s unit-weight
// profile and its intercluster profile, both from the sorted label, to the
// values the label-level searches measured (examples/indexperm prints
// them rounded).
func TestSIPProfilePinned(t *testing.T) {
	g, err := NewSIP(3, 2, sipRules(3, 2, bag.TranspositionNucleus, bag.SwapSuper))
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.BFS(g.sig.Sorted())
	if err != nil {
		t.Fatal(err)
	}
	wantHist := []int64{1, 3, 9, 24, 52, 101, 155, 178, 101, 6}
	if !reflect.DeepEqual(res.Histogram, wantHist) || res.Reachable != 630 ||
		res.Eccentricity != 9 || res.Mean != 6.111287758346582 {
		t.Errorf("BFS: hist %v reachable %d ecc %d mean %v; want hist %v reachable 630 ecc 9 mean 6.111287758346582",
			res.Histogram, res.Reachable, res.Eccentricity, res.Mean, wantHist)
	}
	prof, err := g.MeasureIntercluster()
	if err != nil {
		t.Fatal(err)
	}
	want := InterclusterProfile{ClusterSize: 3, InterclusterDegree: 2, InterclusterDiameter: 4, AvgInterclusterDistance: 2.627980922098569}
	if *prof != want {
		t.Errorf("MeasureIntercluster = %+v, want %+v", *prof, want)
	}
}

// BenchmarkMeasureIntercluster measures SIP(4,2;transposition/swap), 22,680
// labels: the label-level adjacency build plus the 0/1 search.
func BenchmarkMeasureIntercluster(b *testing.B) {
	g, err := NewSIP(4, 2, sipRules(4, 2, bag.TranspositionNucleus, bag.SwapSuper))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := g.MeasureIntercluster(); err != nil {
			b.Fatal(err)
		}
	}
}
