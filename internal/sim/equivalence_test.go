package sim_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topology"
)

// simRun is one pinned simulator run: it runs the task with rec as its
// recorder and returns the %+v of its result, or its error text.
type simRun struct {
	name string
	run  func(rec obs.Recorder) string
}

// result formats a run's outcome for the table.
func result[R any](res *R, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("%+v", *res)
}

// equivalenceTopos returns the four networks the table runs on: MS(2,2),
// hypercube(5), torus(4^2), and MS(2,2) with the faults example's four
// wires cut (mirrored), routed around them by fault.RoutedTopology.
func equivalenceTopos(t *testing.T) []sim.Topology {
	t.Helper()
	nw, err := topology.NewMS(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := sim.NewPermTopology(nw)
	if err != nil {
		t.Fatal(err)
	}
	hc, err := sim.NewHypercubeTopology(5)
	if err != nil {
		t.Fatal(err)
	}
	torus, err := sim.NewTorusTopology(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := fault.MirrorUndirected(nw.Graph(), fault.NewSet(
		fault.Link{Node: 3, Gen: 0}, fault.Link{Node: 40, Gen: 1},
		fault.Link{Node: 77, Gen: 2}, fault.Link{Node: 101, Gen: 0}))
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := fault.NewRoutedTopology(nw.Graph(), fs)
	if err != nil {
		t.Fatal(err)
	}
	return []sim.Topology{ms, hc, torus, faulted}
}

// equivalenceRuns lists every pinned run: the four unicast workloads on
// each network under both port models, with unbounded buffers and with
// credit-limited ones (capacities 1, 2 and 64, plus the 4-ring antipodal
// deadlock), open-loop traffic at rates 0.05, 0.3 and 1.0, and MNB.
func equivalenceRuns(t *testing.T) []simRun {
	topos := equivalenceTopos(t)
	ring, err := sim.NewTorusTopology(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	var antipodal []sim.Packet
	for s := int64(0); s < 4; s++ {
		antipodal = append(antipodal, sim.Packet{Src: s, Dst: (s + 2) % 4})
	}
	ms, te := topos[0], sim.TotalExchange(topos[0].NumNodes())
	bad := []sim.Packet{{Src: 0, Dst: ms.NumNodes()}}
	runs := []simRun{
		{"unicast/MS(2,2)/te/all-port/max-steps-50", func(rec obs.Recorder) string {
			return result(sim.RunUnicast(ms, te, sim.AllPort, 50, rec))
		}},
		{"buffered/64/MS(2,2)/te/all-port/max-steps-50", func(rec obs.Recorder) string {
			return result(sim.RunUnicastBuffered(ms, te, sim.AllPort, 64, 50, rec))
		}},
		{"unicast/MS(2,2)/out-of-range", func(rec obs.Recorder) string {
			return result(sim.RunUnicast(ms, bad, sim.AllPort, 0, rec))
		}},
		{"buffered/4/MS(2,2)/out-of-range", func(rec obs.Recorder) string {
			return result(sim.RunUnicastBuffered(ms, bad, sim.AllPort, 4, 0, rec))
		}},
		{"buffered/0/MS(2,2)/te/all-port", func(rec obs.Recorder) string {
			return result(sim.RunUnicastBuffered(ms, te, sim.AllPort, 0, 0, rec))
		}},
		{"openloop/0/MS(2,2)/all-port", func(rec obs.Recorder) string {
			return result(sim.RunOpenLoop(ms, 0, 150, sim.AllPort, 11, rec))
		}},
	}
	for _, model := range []sim.PortModel{sim.AllPort, sim.SinglePort} {
		for _, topo := range topos {
			n := topo.NumNodes()
			workloads := []struct {
				name string
				pkts []sim.Packet
			}{
				{"te", sim.TotalExchange(n)},
				{"perm", sim.PermutationRouting(n, 3)},
				{"hotspot", sim.Hotspot(n, 400, 0, 0.5, 5)},
				{"random", sim.RandomRouting(n, 400, 7)},
			}
			for _, w := range workloads {
				runs = append(runs, simRun{
					fmt.Sprintf("unicast/%s/%s/%s", topo.Name(), w.name, model),
					func(rec obs.Recorder) string {
						return result(sim.RunUnicast(topo, w.pkts, model, 0, rec))
					},
				})
				if w.name != "perm" && w.name != "hotspot" {
					continue
				}
				for _, bufCap := range []int{1, 2, 64} {
					runs = append(runs, simRun{
						fmt.Sprintf("buffered/%d/%s/%s/%s", bufCap, topo.Name(), w.name, model),
						func(rec obs.Recorder) string {
							return result(sim.RunUnicastBuffered(topo, w.pkts, model, bufCap, 1<<12, rec))
						},
					})
				}
			}
			for _, rate := range []float64{0.05, 0.3, 1.0} {
				runs = append(runs, simRun{
					fmt.Sprintf("openloop/%g/%s/%s", rate, topo.Name(), model),
					func(rec obs.Recorder) string {
						return result(sim.RunOpenLoop(topo, rate, 150, model, 11, rec))
					},
				})
			}
			if topo != topos[3] { // flooding ignores the faults
				runs = append(runs, simRun{
					fmt.Sprintf("mnb/%s/%s", topo.Name(), model),
					func(rec obs.Recorder) string {
						return result(sim.RunBroadcast(topo, model, 0, rec))
					},
				})
			}
		}
		runs = append(runs, simRun{
			fmt.Sprintf("buffered/1/%s/antipodal/%s", ring.Name(), model),
			func(rec obs.Recorder) string {
				return result(sim.RunUnicastBuffered(ring, antipodal, model, 1, 1<<12, rec))
			},
		})
	}
	return runs
}

// TestSimulatorEquivalenceTable runs every pinned run twice, with a nil
// recorder and with a Trace at stats-every 1, and requires both to give
// the result committed in pinnedRuns, and the trace's NDJSON run record
// (config {"run": name}) to hash to the committed SHA-256. The values were
// recorded from the three unicast step loops the simulator had before
// they became one.
func TestSimulatorEquivalenceTable(t *testing.T) {
	runs := equivalenceRuns(t)
	if len(runs) != len(pinnedRuns) {
		t.Errorf("%d runs, %d pinned", len(runs), len(pinnedRuns))
	}
	for _, r := range runs {
		plain := r.run(nil)
		tr := obs.NewTrace(1)
		traced := r.run(tr)
		var buf bytes.Buffer
		if err := tr.Record(map[string]string{"run": r.name}, nil).WriteNDJSON(&buf); err != nil {
			t.Fatal(err)
		}
		sum := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
		want, ok := pinnedRuns[r.name]
		switch {
		case !ok:
			t.Errorf("%s: not pinned; got\n\t%q: {%q, %q},", r.name, r.name, plain, sum)
		case plain != traced:
			t.Errorf("%s: the recorder changed the result:\n nil   %s\n trace %s", r.name, plain, traced)
		case plain != want.result || sum != want.trace:
			t.Errorf("%s:\n got  %s\n      trace %s\n want %s\n      trace %s", r.name, plain, sum, want.result, want.trace)
		}
	}
}

// pinnedRuns maps each run's name to its result and trace hash.
var pinnedRuns = map[string]struct{ result, trace string }{
	"unicast/MS(2,2)/te/all-port/max-steps-50":       {"error: sim: RunUnicast: 13931 packets undelivered after 50 steps", "0841a7cb0fa451c5f7ffbe0e166b1e3afe23a43bafbfd6b8bc88850062cc3bc9"},
	"buffered/64/MS(2,2)/te/all-port/max-steps-50":   {"error: sim: RunUnicastBuffered: 13934 packets undelivered after 50 steps", "7cec4c4d620597bc9ad79dcf00a49d73ddff3ccc65e528eb748b8c10a7e0775f"},
	"unicast/MS(2,2)/out-of-range":                   {"error: sim: RunUnicast: packet {0 120} out of range", "e65ce36367a146f9ea9c2c244d37d6f8b2a01cf3734d9ae93f79e3bc9c19b3a5"},
	"buffered/4/MS(2,2)/out-of-range":                {"error: sim: RunUnicastBuffered: packet {0 120} out of range", "c1eb1c03e6edbd1c8cb859848a517fad34efebe1ebbe994f0194d05fbc53c263"},
	"buffered/0/MS(2,2)/te/all-port":                 {"error: sim: RunUnicastBuffered: buffer capacity 0 must be >= 1", "3cac9cfffcda6f2122ee59e58d9848a1610e573a1002b3e235788d9e96c27630"},
	"openloop/0/MS(2,2)/all-port":                    {"error: sim: RunOpenLoop: rate 0 outside (0,1]", "41012c559ced060fecb10c0978f23f8f48d945853b15d25dd6f052f65da2f7f9"},
	"unicast/MS(2,2)/te/all-port":                    {"{Steps:301 Delivered:14280 TotalHops:89040 MaxLinkLoad:300 AvgLinkLoad:247.33333333333334 MaxQueueLen:92 LoadGini:0.07726864330637916 Latency:p50=210.2 p95=301.0 p99=301.0 max=301 mean=211.26}", "c692ee299b2f4ef898aa71025ea7a0305034dc455ffb984fe9e4ba5c1c718553"},
	"unicast/MS(2,2)/perm/all-port":                  {"{Steps:11 Delivered:120 TotalHops:730 MaxLinkLoad:7 AvgLinkLoad:2.0277777777777777 MaxQueueLen:3 LoadGini:0.3614764079147641 Latency:p50=7.0 p95=9.9 p99=11.0 max=11 mean=6.52}", "2e7c83181f1e4d70af07b6f56877f896c9a3cae495c664a504254497e3f4de73"},
	"buffered/1/MS(2,2)/perm/all-port":               {"{Steps:27 Delivered:120 TotalHops:730 MaxLinkLoad:7 AvgLinkLoad:2.0277777777777777 MaxQueueLen:1 LoadGini:0.3614764079147641 Latency:p50=10.6 p95=23.2 p99=26.2 max=27 mean=11.26}", "9ef4c800d6af0c5049a9e7e46d2640b30a553277faf78604de081565db09054c"},
	"buffered/2/MS(2,2)/perm/all-port":               {"{Steps:13 Delivered:120 TotalHops:730 MaxLinkLoad:7 AvgLinkLoad:2.0277777777777777 MaxQueueLen:2 LoadGini:0.3614764079147641 Latency:p50=8.2 p95=11.8 p99=13.0 max=13 mean=7.69}", "a2d414480f4155912a6799c47ba82bc2680d10380f357515d0359a74737c855b"},
	"buffered/64/MS(2,2)/perm/all-port":              {"{Steps:12 Delivered:120 TotalHops:730 MaxLinkLoad:7 AvgLinkLoad:2.0277777777777777 MaxQueueLen:3 LoadGini:0.3614764079147641 Latency:p50=8.0 p95=11.4 p99=12.0 max=12 mean=7.52}", "b237531317a7b3ffe8d4d785ddeca415c4136c5d022a3c67d336944dc9b37545"},
	"unicast/MS(2,2)/hotspot/all-port":               {"{Steps:88 Delivered:400 TotalHops:2460 MaxLinkLoad:87 AvgLinkLoad:6.833333333333333 MaxQueueLen:37 LoadGini:0.4814950316169828 Latency:p50=15.4 p95=71.3 p99=87.1 max=88 mean=25.10}", "dfb52e48c50cdf065f5948bd329b5e59087b02df126a0b687387c0ae98473436"},
	"buffered/1/MS(2,2)/hotspot/all-port":            {"error: sim: RunUnicastBuffered: deadlock at step 81 with 293 packets in flight (buffer capacity 1)", "08050b078206bca03f0434d338f46358725580b1c64c0a3e9c8b9cecb9c57514"},
	"buffered/2/MS(2,2)/hotspot/all-port":            {"{Steps:93 Delivered:400 TotalHops:2460 MaxLinkLoad:87 AvgLinkLoad:6.833333333333333 MaxQueueLen:2 LoadGini:0.4814950316169828 Latency:p50=40.2 p95=81.4 p99=92.5 max=93 mean=41.47}", "d16920204d65ecb5a961620733105bfc6d444193f5fd24ed93dcb39770ddc170"},
	"buffered/64/MS(2,2)/hotspot/all-port":           {"{Steps:89 Delivered:400 TotalHops:2460 MaxLinkLoad:87 AvgLinkLoad:6.833333333333333 MaxQueueLen:37 LoadGini:0.4814950316169828 Latency:p50=16.5 p95=72.4 p99=88.0 max=89 mean=26.10}", "eb3873e50ca11bbde4c06e0feb5993a7d0b6c19262f6b692aa843612cbd7f700"},
	"unicast/MS(2,2)/random/all-port":                {"{Steps:17 Delivered:400 TotalHops:2503 MaxLinkLoad:15 AvgLinkLoad:6.9527777777777775 MaxQueueLen:6 LoadGini:0.22379256003906423 Latency:p50=9.9 p95=15.2 p99=16.7 max=17 mean=9.47}", "602edf626420bd7bac9136d292cd6690ec6aa9fb2e3d222bca6e188f860e8ecb"},
	"openloop/0.05/MS(2,2)/all-port":                 {"{Offered:0.05 Throughput:0.04961111111111111 MeanLatency:6.406494960806271 Injected:932 Delivered:893 Dropped:11 Backlog:39 Latency:p50=6.8 p95=10.2 p99=11.7 max=12 mean=6.41}", "ac331a84f9fb6a911b488e5ec0d2aa0297ecc86602c50b309875ed615fc1c0e6"},
	"openloop/0.3/MS(2,2)/all-port":                  {"{Offered:0.3 Throughput:0.2865 MeanLatency:10.389955400426604 Injected:5492 Delivered:5157 Dropped:55 Backlog:335 Latency:p50=10.4 p95=19.1 p99=23.2 max=32 mean=10.39}", "002bd4912150b360563d412361521a3df1c04668e62f002566debc2621472876"},
	"openloop/1/MS(2,2)/all-port":                    {"{Offered:1 Throughput:0.26305555555555554 MeanLatency:51.99619852164731 Injected:17852 Delivered:4735 Dropped:148 Backlog:13117 Latency:p50=50.1 p95=108.4 p99=126.1 max=140 mean=52.00}", "ce596f09566fa98243691ec04ec2976f73aa63cf4d76a7c5f538c4f1d32fbb5b"},
	"mnb/MS(2,2)/all-port":                           {"{Steps:119 Delivered:14280 TotalHops:42840 MaxLinkLoad:119 AvgLinkLoad:119 MaxQueueLen:42 LoadGini:0 Latency:p50=32.6 p95=86.5 p99=111.5 max=119 mean=36.48}", "b89a13249e3c16094abebd39ba486c655961424f9f9c76d8cac42589c4b93e78"},
	"unicast/hypercube(5)/te/all-port":               {"{Steps:24 Delivered:992 TotalHops:2560 MaxLinkLoad:16 AvgLinkLoad:16 MaxQueueLen:16 LoadGini:0 Latency:p50=10.1 p95=19.5 p99=22.8 max=24 mean=9.67}", "0f2a2d7587e0b4fdc2f51842c8ef2907ed304fc67a5fc9f61e35b45580e492a8"},
	"unicast/hypercube(5)/perm/all-port":             {"{Steps:4 Delivered:30 TotalHops:76 MaxLinkLoad:2 AvgLinkLoad:0.475 MaxQueueLen:2 LoadGini:0.6144736842105263 Latency:p50=3.1 p95=4.0 p99=4.0 max=4 mean=2.60}", "96717758100a526ee256ebbaa6ef614bc08d89f32ab95f177ce0200146cd722f"},
	"buffered/1/hypercube(5)/perm/all-port":          {"{Steps:6 Delivered:30 TotalHops:76 MaxLinkLoad:2 AvgLinkLoad:0.475 MaxQueueLen:1 LoadGini:0.6144736842105263 Latency:p50=4.2 p95=5.9 p99=6.0 max=6 mean=3.77}", "e20d92f0fc876b366b7ef311c1c492fabb7fa91211994f48eb5071c6b480d054"},
	"buffered/2/hypercube(5)/perm/all-port":          {"{Steps:5 Delivered:30 TotalHops:76 MaxLinkLoad:2 AvgLinkLoad:0.475 MaxQueueLen:2 LoadGini:0.6144736842105263 Latency:p50=4.1 p95=5.0 p99=5.0 max=5 mean=3.60}", "ef0465244fe62f1e4c344f3f907e70b8175722ba317b73e1e3764e5361e65993"},
	"buffered/64/hypercube(5)/perm/all-port":         {"{Steps:5 Delivered:30 TotalHops:76 MaxLinkLoad:2 AvgLinkLoad:0.475 MaxQueueLen:2 LoadGini:0.6144736842105263 Latency:p50=4.1 p95=5.0 p99=5.0 max=5 mean=3.60}", "96294c3d023fad50ebe5977ce484c7a1ea625a972d037f7f434edf768e0e68ca"},
	"unicast/hypercube(5)/hotspot/all-port":          {"{Steps:96 Delivered:400 TotalHops:1052 MaxLinkLoad:96 AvgLinkLoad:6.575 MaxQueueLen:42 LoadGini:0.5592561787072243 Latency:p50=9.4 p95=76.0 p99=92.0 max=96 mean=20.92}", "3409c974023464640cd4bc157d6622f233cd24d1e5f38ed350e64ce05b2b1835"},
	"buffered/1/hypercube(5)/hotspot/all-port":       {"{Steps:206 Delivered:400 TotalHops:1052 MaxLinkLoad:96 AvgLinkLoad:6.575 MaxQueueLen:1 LoadGini:0.5592561787072243 Latency:p50=47.8 p95=175.5 p99=197.4 max=206 mean=62.71}", "17dda866cd426d68ebb949737fcf06b9e0c0383210d077cf185bfaa8429f1756"},
	"buffered/2/hypercube(5)/hotspot/all-port":       {"{Steps:104 Delivered:400 TotalHops:1052 MaxLinkLoad:96 AvgLinkLoad:6.575 MaxQueueLen:2 LoadGini:0.5592561787072243 Latency:p50=24.7 p95=88.6 p99=100.6 max=104 mean=32.06}", "c5a4e99bf454c99c4483e299ddda52f7183fa0e04e861de7a6b0347fb5611416"},
	"buffered/64/hypercube(5)/hotspot/all-port":      {"{Steps:97 Delivered:400 TotalHops:1052 MaxLinkLoad:96 AvgLinkLoad:6.575 MaxQueueLen:42 LoadGini:0.5592561787072243 Latency:p50=10.5 p95=77.0 p99=93.0 max=97 mean=21.92}", "efb1ec11fe181d04ade98c58a82b5748ee868be0ea02a4621c40c1d1fc68081b"},
	"unicast/hypercube(5)/random/all-port":           {"{Steps:15 Delivered:400 TotalHops:1055 MaxLinkLoad:14 AvgLinkLoad:6.59375 MaxQueueLen:11 LoadGini:0.2048281990521327 Latency:p50=6.2 p95=12.0 p99=14.3 max=15 mean=5.89}", "962a6c37d189d417ed5ca53392cef8ceabd7b365f2077e82d135cd343b814b1d"},
	"openloop/0.05/hypercube(5)/all-port":            {"{Offered:0.05 Throughput:0.051666666666666666 MeanLatency:2.7379032258064515 Injected:249 Delivered:248 Dropped:2 Backlog:1 Latency:p50=3.3 p95=4.9 p99=5.8 max=6 mean=2.74}", "980dffc8de0c2c93ade4ba949f20d6b72eff67b6c27dca90f6984b6879658558"},
	"openloop/0.3/hypercube(5)/all-port":             {"{Offered:0.3 Throughput:0.30333333333333334 MeanLatency:2.6826923076923075 Injected:1477 Delivered:1456 Dropped:48 Backlog:21 Latency:p50=3.1 p95=5.0 p99=5.9 max=7 mean=2.68}", "b3f63381494a2f1fc671a0c6764de1f39dc1e0ac820c40d4437e3b736eb4c5dd"},
	"openloop/1/hypercube(5)/all-port":               {"{Offered:1 Throughput:0.9575 MeanLatency:3.2991731940818103 Injected:4662 Delivered:4596 Dropped:138 Backlog:66 Latency:p50=3.6 p95=6.9 p99=8.9 max=10 mean=3.30}", "78d3ca2befcf7b6111ee22fc96ac3c44b0c74e1f23951a7157878014116c1129"},
	"mnb/hypercube(5)/all-port":                      {"{Steps:31 Delivered:992 TotalHops:4960 MaxLinkLoad:31 AvgLinkLoad:31 MaxQueueLen:13 LoadGini:0 Latency:p50=7.3 p95=25.2 p99=29.3 max=31 mean=9.07}", "0e292e2d0df665b30df9af9dbc5837fb974cdd87069bf43d0ddbfa1df961a3ac"},
	"unicast/torus(4^2)/te/all-port":                 {"{Steps:15 Delivered:240 TotalHops:512 MaxLinkLoad:12 AvgLinkLoad:8 MaxQueueLen:8 LoadGini:0.25 Latency:p50=6.2 p95=13.4 p99=14.3 max=15 mean=6.34}", "2bf7389cff3789a16fd47249588e4dd55b4670213fdd6885bc1177a49dd3a70a"},
	"unicast/torus(4^2)/perm/all-port":               {"{Steps:4 Delivered:16 TotalHops:36 MaxLinkLoad:2 AvgLinkLoad:0.5625 MaxQueueLen:2 LoadGini:0.5720486111111112 Latency:p50=2.6 p95=4.0 p99=4.0 max=4 mean=2.38}", "6b393dc9522bd72866f5f0983da4c7d8be600e599a29b7687928d811be95e3d8"},
	"buffered/1/torus(4^2)/perm/all-port":            {"{Steps:7 Delivered:16 TotalHops:36 MaxLinkLoad:2 AvgLinkLoad:0.5625 MaxQueueLen:1 LoadGini:0.5720486111111112 Latency:p50=3.6 p95=6.2 p99=6.8 max=7 mean=3.56}", "8d1eb6da495063f399f24d2394dd19c60210b03ab0d485855932a38aa8d89bb0"},
	"buffered/2/torus(4^2)/perm/all-port":            {"{Steps:5 Delivered:16 TotalHops:36 MaxLinkLoad:2 AvgLinkLoad:0.5625 MaxQueueLen:2 LoadGini:0.5720486111111112 Latency:p50=3.6 p95=5.0 p99=5.0 max=5 mean=3.38}", "f94c9ff845b77682e2044740850cee758e57c80b4e67fadf5cdfebf55f1cdb7b"},
	"buffered/64/torus(4^2)/perm/all-port":           {"{Steps:5 Delivered:16 TotalHops:36 MaxLinkLoad:2 AvgLinkLoad:0.5625 MaxQueueLen:2 LoadGini:0.5720486111111112 Latency:p50=3.6 p95=5.0 p99=5.0 max=5 mean=3.38}", "3d8a25e88f69d8be4b75be50b1be71c47352eb0cfaec03ee39c6667efc8aa4bd"},
	"unicast/torus(4^2)/hotspot/all-port":            {"{Steps:118 Delivered:400 TotalHops:907 MaxLinkLoad:118 AvgLinkLoad:14.171875 MaxQueueLen:56 LoadGini:0.5559020121278941 Latency:p50=17.0 p95=98.0 p99=116.6 max=118 mean=28.73}", "a405ccc75b9c574e052c94d9a8a48e8b2cf4209a7c014abf45db78053d1cbe54"},
	"buffered/1/torus(4^2)/hotspot/all-port":         {"error: sim: RunUnicastBuffered: deadlock at step 245 with 77 packets in flight (buffer capacity 1)", "da2d40f7b88b49452be72ef104660f129f43284e4aa96d060f99c6d02cb375d0"},
	"buffered/2/torus(4^2)/hotspot/all-port":         {"error: sim: RunUnicastBuffered: deadlock at step 124 with 76 packets in flight (buffer capacity 2)", "1c4d72640194ed8925ddad1d385beb48ff67f86379aa7d6907b2d19c2db13de8"},
	"buffered/64/torus(4^2)/hotspot/all-port":        {"{Steps:119 Delivered:400 TotalHops:907 MaxLinkLoad:118 AvgLinkLoad:14.171875 MaxQueueLen:56 LoadGini:0.5559020121278941 Latency:p50=18.1 p95=99.0 p99=118.0 max=119 mean=29.73}", "0938cbfddd296a4a0e2811468742f63939b4dcd441109de9a12b5398f5408316"},
	"unicast/torus(4^2)/random/all-port":             {"{Steps:32 Delivered:400 TotalHops:858 MaxLinkLoad:32 AvgLinkLoad:13.40625 MaxQueueLen:16 LoadGini:0.340872668997669 Latency:p50=12.3 p95=24.9 p99=30.2 max=32 mean=11.76}", "6bd8ea77c828d83342b7104b55b021ecddedc98380d1168b9ef632ab9ab52fcb"},
	"openloop/0.05/torus(4^2)/all-port":              {"{Offered:0.05 Throughput:0.052083333333333336 MeanLatency:2.232 Injected:125 Delivered:125 Dropped:1 Backlog:0 Latency:p50=2.7 p95=4.0 p99=4.0 max=4 mean=2.23}", "9716eb2f7fd658be2024cd793e81fff26eaf35670e8a44930d86a798dce5c4af"},
	"openloop/0.3/torus(4^2)/all-port":               {"{Offered:0.3 Throughput:0.2920833333333333 MeanLatency:2.253922967189729 Injected:707 Delivered:701 Dropped:42 Backlog:6 Latency:p50=2.6 p95=4.7 p99=5.6 max=6 mean=2.25}", "c6cabcf4eaaa388c12bfcaa3904299575ccc17fbed91f07d09c18b919050d55b"},
	"openloop/1/torus(4^2)/all-port":                 {"{Offered:1 Throughput:0.9108333333333334 MeanLatency:3.1445562671546203 Injected:2236 Delivered:2186 Dropped:164 Backlog:50 Latency:p50=3.3 p95=7.1 p99=9.8 max=13 mean=3.14}", "ff9fa27b4c49d09bf22cae4f19cc1c5bdd62edcd4f20b22514e33ac9fabce028"},
	"mnb/torus(4^2)/all-port":                        {"{Steps:15 Delivered:240 TotalHops:960 MaxLinkLoad:15 AvgLinkLoad:15 MaxQueueLen:7 LoadGini:0 Latency:p50=3.8 p95=12.6 p99=14.9 max=15 mean=4.55}", "22afc0b09f9509ea068e19ddfd241dff326f774b2acbf133690309697005f3aa"},
	"unicast/MS(2,2)+faults/te/all-port":             {"{Steps:283 Delivered:14280 TotalHops:70894 MaxLinkLoad:283 AvgLinkLoad:196.92777777777778 MaxQueueLen:100 LoadGini:0.0893677728565025 Latency:p50=169.2 p95=223.7 p99=253.3 max=283 mean=159.86}", "e0231d87a51b1c9b2d1d4b566c7598fb26e63cfe3d289c5bc467ef46745db1ce"},
	"unicast/MS(2,2)+faults/perm/all-port":           {"{Steps:9 Delivered:120 TotalHops:580 MaxLinkLoad:5 AvgLinkLoad:1.6111111111111112 MaxQueueLen:2 LoadGini:0.3786973180076628 Latency:p50=5.7 p95=8.5 p99=9.0 max=9 mean=5.12}", "c2403f1a9f89df1241189745d1f7df78e91f442300cf52bc64f2102cd49e3b98"},
	"buffered/1/MS(2,2)+faults/perm/all-port":        {"{Steps:17 Delivered:120 TotalHops:580 MaxLinkLoad:5 AvgLinkLoad:1.6111111111111112 MaxQueueLen:1 LoadGini:0.3786973180076628 Latency:p50=8.4 p95=15.3 p99=17.0 max=17 mean=8.35}", "f0d7f55a9cb82be9d86188c1cf177addc3e99e98735bb62e65b9de3edc798fe3"},
	"buffered/2/MS(2,2)+faults/perm/all-port":        {"{Steps:10 Delivered:120 TotalHops:580 MaxLinkLoad:5 AvgLinkLoad:1.6111111111111112 MaxQueueLen:2 LoadGini:0.3786973180076628 Latency:p50=6.7 p95=9.5 p99=9.9 max=10 mean=6.14}", "516cf75b121d5b0c1354cd23df461e7829f6577908e2bd2264e8b1eacc8b7b71"},
	"buffered/64/MS(2,2)+faults/perm/all-port":       {"{Steps:10 Delivered:120 TotalHops:580 MaxLinkLoad:5 AvgLinkLoad:1.6111111111111112 MaxQueueLen:2 LoadGini:0.3786973180076628 Latency:p50=6.7 p95=9.5 p99=9.9 max=10 mean=6.12}", "25ade6f317b9915961c97d5e59d9121dc941913fab1444197d8ee62b2de49333"},
	"unicast/MS(2,2)+faults/hotspot/all-port":        {"{Steps:72 Delivered:400 TotalHops:1996 MaxLinkLoad:72 AvgLinkLoad:5.544444444444444 MaxQueueLen:31 LoadGini:0.5368069472277889 Latency:p50=12.6 p95=64.8 p99=72.0 max=72 mean=22.93}", "3f0ed52de5c0caafad76191033a0f46282d3244ece05e8f7a7cce87be66b7aad"},
	"buffered/1/MS(2,2)+faults/hotspot/all-port":     {"{Steps:153 Delivered:400 TotalHops:1996 MaxLinkLoad:72 AvgLinkLoad:5.544444444444444 MaxQueueLen:1 LoadGini:0.5368069472277889 Latency:p50=73.2 p95=145.1 p99=153.0 max=153 mean=71.88}", "26fbbd18c728e389fbef97f714d02dcba25dc159428c726681bdb77a5d84ef7d"},
	"buffered/2/MS(2,2)+faults/hotspot/all-port":     {"{Steps:73 Delivered:400 TotalHops:1996 MaxLinkLoad:72 AvgLinkLoad:5.544444444444444 MaxQueueLen:2 LoadGini:0.5368069472277889 Latency:p50=34.4 p95=73.0 p99=73.0 max=73 mean=35.28}", "e4d944ba5fcde78363f6f3e559057c098242040b315cd4e603bb0eee6c6ae588"},
	"buffered/64/MS(2,2)+faults/hotspot/all-port":    {"{Steps:73 Delivered:400 TotalHops:1996 MaxLinkLoad:72 AvgLinkLoad:5.544444444444444 MaxQueueLen:31 LoadGini:0.5368069472277889 Latency:p50=13.9 p95=66.6 p99=73.0 max=73 mean=23.93}", "f8dc272a4ff18717b67cf0c700986f3fa128ddcd32aa6510f0d7f14cb094e44a"},
	"unicast/MS(2,2)+faults/random/all-port":         {"{Steps:14 Delivered:400 TotalHops:1946 MaxLinkLoad:13 AvgLinkLoad:5.405555555555556 MaxQueueLen:6 LoadGini:0.2548018727874843 Latency:p50=8.0 p95=12.5 p99=13.8 max=14 mean=7.46}", "c02aebe2dbf5f1d4198427c0801874b192ad7dd47be13cefa5ff900334b0ba3b"},
	"openloop/0.05/MS(2,2)+faults/all-port":          {"{Offered:0.05 Throughput:0.0505 MeanLatency:5.048404840484048 Injected:932 Delivered:909 Dropped:11 Backlog:23 Latency:p50=5.7 p95=7.9 p99=9.0 max=9 mean=5.05}", "feaf8875d1dd509862b4581633f7f575c5b1d5aa46f7674807e0abb6925a4330"},
	"openloop/0.3/MS(2,2)+faults/all-port":           {"{Offered:0.3 Throughput:0.2935 MeanLatency:6.804088586030664 Injected:5492 Delivered:5283 Dropped:55 Backlog:209 Latency:p50=7.2 p95=11.8 p99=14.0 max=21 mean=6.80}", "83d15d00884c573cdc492b053f93a655089796ec431e50bad11ac1b1557bf3cd"},
	"openloop/1/MS(2,2)+faults/all-port":             {"{Offered:1 Throughput:0.402 MeanLatency:43.87106135986733 Injected:17852 Delivered:7236 Dropped:148 Backlog:10616 Latency:p50=40.4 p95=94.4 p99=110.0 max=131 mean=43.87}", "1dee70f80c16b1c28e0bc6981611d65d814ad5f6a96f323398ef3869c45db7fd"},
	"buffered/1/torus(4^1)/antipodal/all-port":       {"error: sim: RunUnicastBuffered: deadlock at step 1 with 4 packets in flight (buffer capacity 1)", "a3b136cb3d2f6e7c86f9745a7cbb150fe66cc9017fb5e7cea6788ab6e50d0897"},
	"unicast/MS(2,2)/te/single-port":                 {"{Steps:743 Delivered:14280 TotalHops:89040 MaxLinkLoad:300 AvgLinkLoad:247.33333333333334 MaxQueueLen:94 LoadGini:0.07726864330637916 Latency:p50=593.0 p95=743.0 p99=743.0 max=743 mean=579.01}", "82de4a0fd2a45555d5588fc2a7dcd8f1bf6a6691fe5c97c5f0cd19603dc2a774"},
	"unicast/MS(2,2)/perm/single-port":               {"{Steps:16 Delivered:120 TotalHops:730 MaxLinkLoad:7 AvgLinkLoad:2.0277777777777777 MaxQueueLen:4 LoadGini:0.3614764079147641 Latency:p50=8.4 p95=13.7 p99=16.0 max=16 mean=8.28}", "e09db97c3a46ca873cedc411f16bfa5fcf81d5e248fbd803d117ca49ec45560b"},
	"buffered/1/MS(2,2)/perm/single-port":            {"{Steps:27 Delivered:120 TotalHops:730 MaxLinkLoad:7 AvgLinkLoad:2.0277777777777777 MaxQueueLen:1 LoadGini:0.3614764079147641 Latency:p50=11.5 p95=23.5 p99=26.5 max=27 mean=12.00}", "184175ab6a86dc8ef8786e51369daf90340d0d5c00ad1566b39a075046118fd5"},
	"buffered/2/MS(2,2)/perm/single-port":            {"{Steps:18 Delivered:120 TotalHops:730 MaxLinkLoad:7 AvgLinkLoad:2.0277777777777777 MaxQueueLen:2 LoadGini:0.3614764079147641 Latency:p50=9.9 p95=15.5 p99=18.0 max=18 mean=9.43}", "aff22a8ecd4bd105ccb45621013a6a03d1b5aa05669ae3f6d70ccbb34f9407a5"},
	"buffered/64/MS(2,2)/perm/single-port":           {"{Steps:17 Delivered:120 TotalHops:730 MaxLinkLoad:7 AvgLinkLoad:2.0277777777777777 MaxQueueLen:4 LoadGini:0.3614764079147641 Latency:p50=9.7 p95=15.2 p99=17.0 max=17 mean=9.28}", "414d0a03dd57df690c56429abc4dc5bd2a20fcfd7f259456cf968a08d01371bb"},
	"unicast/MS(2,2)/hotspot/single-port":            {"{Steps:99 Delivered:400 TotalHops:2460 MaxLinkLoad:87 AvgLinkLoad:6.833333333333333 MaxQueueLen:32 LoadGini:0.4814950316169828 Latency:p50=23.9 p95=79.5 p99=95.0 max=99 mean=32.17}", "127808cfa8554eccf091b1af6af5cfc7cef479a927f08e704e06c800f98df163"},
	"buffered/1/MS(2,2)/hotspot/single-port":         {"error: sim: RunUnicastBuffered: deadlock at step 83 with 294 packets in flight (buffer capacity 1)", "43192f2433f2db88776d5102eae9fd16b40acf5ab33afd72264b195794e8f056"},
	"buffered/2/MS(2,2)/hotspot/single-port":         {"error: sim: RunUnicastBuffered: deadlock at step 51 with 220 packets in flight (buffer capacity 2)", "a7e35650db52edb60b2571ea74ecd82010485613785918bdfe5d715b54286bbe"},
	"buffered/64/MS(2,2)/hotspot/single-port":        {"{Steps:100 Delivered:400 TotalHops:2460 MaxLinkLoad:87 AvgLinkLoad:6.833333333333333 MaxQueueLen:32 LoadGini:0.4814950316169828 Latency:p50=25.1 p95=81.0 p99=96.0 max=100 mean=33.17}", "3dc85aa35388035e156bad976fb82ad522574e6f577e1c5150eb22780c9adf41"},
	"unicast/MS(2,2)/random/single-port":             {"{Steps:31 Delivered:400 TotalHops:2503 MaxLinkLoad:15 AvgLinkLoad:6.9527777777777775 MaxQueueLen:7 LoadGini:0.22379256003906423 Latency:p50=19.1 p95=27.9 p99=31.0 max=31 mean=18.33}", "a7643bc2aa9d04845e352c7a75c0cfe1581fcc7ab96c083a66e4aa2389a92edd"},
	"openloop/0.05/MS(2,2)/single-port":              {"{Offered:0.05 Throughput:0.049444444444444444 MeanLatency:7.244943820224719 Injected:932 Delivered:890 Dropped:11 Backlog:42 Latency:p50=7.5 p95=12.3 p99=14.8 max=16 mean=7.24}", "b3fd918fc43034830f8d2dcd054f19a2991c14f60253c6a49b3e3f2e4150df9c"},
	"openloop/0.3/MS(2,2)/single-port":               {"{Offered:0.3 Throughput:0.09633333333333334 MeanLatency:51.133794694348325 Injected:5492 Delivered:1734 Dropped:55 Backlog:3758 Latency:p50=48.9 p95=106.5 p99=123.9 max=136 mean=51.13}", "440b63b2ac913b150bac90d0403344eeafe975e66d4e868e61a0d1165491a9fe"},
	"openloop/1/MS(2,2)/single-port":                 {"{Offered:1 Throughput:0.03627777777777778 MeanLatency:58.00612557427259 Injected:17852 Delivered:653 Dropped:148 Backlog:17199 Latency:p50=53.0 p95=138.1 p99=149.0 max=149 mean=58.01}", "43b0a790b53b5714aa2da66f45ae2207e2ef100ad11aab83dd6e2a6400e33ad0"},
	"mnb/MS(2,2)/single-port":                        {"{Steps:339 Delivered:14280 TotalHops:40680 MaxLinkLoad:113 AvgLinkLoad:113 MaxQueueLen:43 LoadGini:0 Latency:p50=93.8 p95=240.2 p99=313.7 max=339 mean=104.71}", "c0a051184d5c6a58f9835b3b827cf9298bd3ff7500b74201a3cdc3309f321e3b"},
	"unicast/hypercube(5)/te/single-port":            {"{Steps:80 Delivered:992 TotalHops:2560 MaxLinkLoad:16 AvgLinkLoad:16 MaxQueueLen:16 LoadGini:0 Latency:p50=44.9 p95=78.8 p99=80.0 max=80 mean=43.37}", "d4505eaec5c3a69b26446db1d936644c9540876220077925c1acc35a3a56bcca"},
	"unicast/hypercube(5)/perm/single-port":          {"{Steps:5 Delivered:30 TotalHops:76 MaxLinkLoad:2 AvgLinkLoad:0.475 MaxQueueLen:2 LoadGini:0.6144736842105263 Latency:p50=3.4 p95=4.9 p99=5.0 max=5 mean=2.87}", "ad840d62355a55195d12cc4a205b6ff4fd9ce7a1003d821a3a883d976a7c5139"},
	"buffered/1/hypercube(5)/perm/single-port":       {"{Steps:6 Delivered:30 TotalHops:76 MaxLinkLoad:2 AvgLinkLoad:0.475 MaxQueueLen:1 LoadGini:0.6144736842105263 Latency:p50=4.6 p95=6.0 p99=6.0 max=6 mean=4.07}", "0de55afe7d8120297ea119145c01e81bcf255736d22abf6a7b904329fafe6fb8"},
	"buffered/2/hypercube(5)/perm/single-port":       {"{Steps:6 Delivered:30 TotalHops:76 MaxLinkLoad:2 AvgLinkLoad:0.475 MaxQueueLen:2 LoadGini:0.6144736842105263 Latency:p50=4.4 p95=5.9 p99=6.0 max=6 mean=3.87}", "39d35fc6f4bebecc96f1d59863c7edf32750332129d4c7c6fc0f18bfd7a53de2"},
	"buffered/64/hypercube(5)/perm/single-port":      {"{Steps:6 Delivered:30 TotalHops:76 MaxLinkLoad:2 AvgLinkLoad:0.475 MaxQueueLen:2 LoadGini:0.6144736842105263 Latency:p50=4.4 p95=5.9 p99=6.0 max=6 mean=3.87}", "78123aacc52364b23827ec6f41b7463e9d76ce8b6d20c767eacf9181b05f0125"},
	"unicast/hypercube(5)/hotspot/single-port":       {"{Steps:109 Delivered:400 TotalHops:1052 MaxLinkLoad:96 AvgLinkLoad:6.575 MaxQueueLen:48 LoadGini:0.5592561787072243 Latency:p50=21.9 p95=89.0 p99=106.3 max=109 mean=30.67}", "d17173c23ef065437c5396b9214732f74fadc41c700e720a35576fc6f4043220"},
	"buffered/1/hypercube(5)/hotspot/single-port":    {"{Steps:222 Delivered:400 TotalHops:1052 MaxLinkLoad:96 AvgLinkLoad:6.575 MaxQueueLen:1 LoadGini:0.5592561787072243 Latency:p50=53.2 p95=190.6 p99=216.0 max=222 mean=68.31}", "5d81e1931fd532e1d214f099887f4b4a827fa4eb33bdfb67b970763fdc06d3fa"},
	"buffered/2/hypercube(5)/hotspot/single-port":    {"{Steps:129 Delivered:400 TotalHops:1052 MaxLinkLoad:96 AvgLinkLoad:6.575 MaxQueueLen:2 LoadGini:0.5592561787072243 Latency:p50=37.4 p95=109.0 p99=125.0 max=129 mean=42.40}", "b8ff813e9a61071fc3edf053946d1c60d0b3c6acb4d9fddf78d2979683ba44ce"},
	"buffered/64/hypercube(5)/hotspot/single-port":   {"{Steps:110 Delivered:400 TotalHops:1052 MaxLinkLoad:96 AvgLinkLoad:6.575 MaxQueueLen:48 LoadGini:0.5592561787072243 Latency:p50=22.7 p95=90.0 p99=106.7 max=110 mean=31.67}", "5730a50966f5573cdc48b38fc39ba73bf2239f61a1e8f708129a08d2098173cd"},
	"unicast/hypercube(5)/random/single-port":        {"{Steps:43 Delivered:400 TotalHops:1055 MaxLinkLoad:14 AvgLinkLoad:6.59375 MaxQueueLen:11 LoadGini:0.2048281990521327 Latency:p50=20.3 p95=37.9 p99=39.9 max=43 mean=19.73}", "2f84fa3ca5dba272a2bec0b6a45436a20306f4207ee3334571c3730a12297633"},
	"openloop/0.05/hypercube(5)/single-port":         {"{Offered:0.05 Throughput:0.051666666666666666 MeanLatency:2.879032258064516 Injected:249 Delivered:248 Dropped:2 Backlog:1 Latency:p50=3.4 p95=5.5 p99=6.5 max=7 mean=2.88}", "bb04340171069eb5d1bf965b5f9540699921ee00c474cccf003413c2c3f2a3ee"},
	"openloop/0.3/hypercube(5)/single-port":          {"{Offered:0.3 Throughput:0.2966666666666667 MeanLatency:5.705056179775281 Injected:1477 Delivered:1424 Dropped:48 Backlog:53 Latency:p50=5.2 p95=14.6 p99=19.9 max=27 mean=5.71}", "e374778e2b7687ba6b86f0e97555648ee2cadca217df15de3e2c971df4271cce"},
	"openloop/1/hypercube(5)/single-port":            {"{Offered:1 Throughput:0.3779166666666667 MeanLatency:39.84399117971334 Injected:4662 Delivered:1814 Dropped:138 Backlog:2848 Latency:p50=35.3 p95=94.9 p99=116.8 max=138 mean=39.84}", "b4b5a4fb67956bb13ff74a12dc8a60296dc7e38a2244862f2ef5f9802840358b"},
	"mnb/hypercube(5)/single-port":                   {"{Steps:135 Delivered:992 TotalHops:4320 MaxLinkLoad:27 AvgLinkLoad:27 MaxQueueLen:13 LoadGini:0 Latency:p50=33.0 p95=118.7 p99=135.0 max=135 mean=39.65}", "b5bbc1549b16e81b245debf4a16bd10174bb01b70a65c44a76cd941e40a3e295"},
	"unicast/torus(4^2)/te/single-port":              {"{Steps:33 Delivered:240 TotalHops:512 MaxLinkLoad:12 AvgLinkLoad:8 MaxQueueLen:8 LoadGini:0.25 Latency:p50=18.2 p95=31.4 p99=33.0 max=33 mean=17.56}", "f158b85fb310ab24e68aa51e58e0ec8f41031540576ddf05653158ac93780a6b"},
	"unicast/torus(4^2)/perm/single-port":            {"{Steps:5 Delivered:16 TotalHops:36 MaxLinkLoad:2 AvgLinkLoad:0.5625 MaxQueueLen:2 LoadGini:0.5720486111111112 Latency:p50=2.6 p95=4.2 p99=4.8 max=5 mean=2.38}", "4f7f7236aec93849a7fff8df847e2ec31eaab63b0405e216bdf5c2492c0dff20"},
	"buffered/1/torus(4^2)/perm/single-port":         {"{Steps:7 Delivered:16 TotalHops:36 MaxLinkLoad:2 AvgLinkLoad:0.5625 MaxQueueLen:1 LoadGini:0.5720486111111112 Latency:p50=3.8 p95=7.0 p99=7.0 max=7 mean=3.75}", "9aef2f3ad0ddee29771e5b1e86e7fee373fd38ea484f46540c172cc500bca60f"},
	"buffered/2/torus(4^2)/perm/single-port":         {"{Steps:6 Delivered:16 TotalHops:36 MaxLinkLoad:2 AvgLinkLoad:0.5625 MaxQueueLen:2 LoadGini:0.5720486111111112 Latency:p50=3.6 p95=5.2 p99=5.8 max=6 mean=3.38}", "de796d606dd6b466183c8874bf424b0907ca44231359d3c5745e8d9b6f18a3c9"},
	"buffered/64/torus(4^2)/perm/single-port":        {"{Steps:6 Delivered:16 TotalHops:36 MaxLinkLoad:2 AvgLinkLoad:0.5625 MaxQueueLen:2 LoadGini:0.5720486111111112 Latency:p50=3.6 p95=5.2 p99=5.8 max=6 mean=3.38}", "c7516081081b2adb67843617355ecd8c83b93961a74c401e48affc33add16f68"},
	"unicast/torus(4^2)/hotspot/single-port":         {"{Steps:133 Delivered:400 TotalHops:907 MaxLinkLoad:118 AvgLinkLoad:14.171875 MaxQueueLen:55 LoadGini:0.5559020121278941 Latency:p50=35.7 p95=113.0 p99=133.0 max=133 mean=44.85}", "4d93297d8d52458210b9639633a463cc2b304886519abd281758973c1a8bceb0"},
	"buffered/1/torus(4^2)/hotspot/single-port":      {"error: sim: RunUnicastBuffered: deadlock at step 257 with 77 packets in flight (buffer capacity 1)", "bf17d60573e07eb96b43fb53db3a884ed0dd8ef7aa399ff30246ee4bfb120d00"},
	"buffered/2/torus(4^2)/hotspot/single-port":      {"error: sim: RunUnicastBuffered: deadlock at step 142 with 77 packets in flight (buffer capacity 2)", "b14f405fb0e3e298d2bad9bb7482c8ac19b310d5a838a11c55ab5decaa5e27b5"},
	"buffered/64/torus(4^2)/hotspot/single-port":     {"{Steps:134 Delivered:400 TotalHops:907 MaxLinkLoad:118 AvgLinkLoad:14.171875 MaxQueueLen:55 LoadGini:0.5559020121278941 Latency:p50=36.9 p95=114.0 p99=134.0 max=134 mean=45.85}", "62acd8da78f6967a828fbc6cc267305d80049ca5ddb858394cc920258e21d985"},
	"unicast/torus(4^2)/random/single-port":          {"{Steps:60 Delivered:400 TotalHops:858 MaxLinkLoad:32 AvgLinkLoad:13.40625 MaxQueueLen:17 LoadGini:0.340872668997669 Latency:p50=33.2 p95=56.7 p99=60.0 max=60 mean=31.31}", "434ffb28b60d02b2fcf7416f0404f1ee9d2b96427afd88867ea4fca5650ebc47"},
	"openloop/0.05/torus(4^2)/single-port":           {"{Offered:0.05 Throughput:0.052083333333333336 MeanLatency:2.304 Injected:125 Delivered:125 Dropped:1 Backlog:0 Latency:p50=2.7 p95=4.7 p99=5.0 max=5 mean=2.30}", "068dfc86b0490b58f7ce37ae286bd473395841b92680a577fba65f37ee3739a9"},
	"openloop/0.3/torus(4^2)/single-port":            {"{Offered:0.3 Throughput:0.2891666666666667 MeanLatency:3.185878962536023 Injected:707 Delivered:694 Dropped:42 Backlog:13 Latency:p50=3.3 p95=7.6 p99=10.0 max=13 mean=3.19}", "9e0d0b34bf7c47a965c3320101ed07bca3d721c8515cd2621b130404ccee31f7"},
	"openloop/1/torus(4^2)/single-port":              {"{Offered:1 Throughput:0.46958333333333335 MeanLatency:28.07275953859805 Injected:2236 Delivered:1127 Dropped:164 Backlog:1109 Latency:p50=18.5 p95=83.0 p99=108.5 max=124 mean=28.07}", "4b3ac40680d600b35dd4852d635e4408f3032c6c076c6421e3c1f7f651bd9d88"},
	"mnb/torus(4^2)/single-port":                     {"{Steps:47 Delivered:240 TotalHops:752 MaxLinkLoad:12 AvgLinkLoad:11.75 MaxQueueLen:8 LoadGini:0 Latency:p50=10.9 p95=41.5 p99=46.3 max=47 mean=14.93}", "c36ffac6a23874223e7360069df53236d9b3711dd74e2241253ecf34635f0aa5"},
	"unicast/MS(2,2)+faults/te/single-port":          {"{Steps:761 Delivered:14280 TotalHops:70894 MaxLinkLoad:283 AvgLinkLoad:196.92777777777778 MaxQueueLen:110 LoadGini:0.0893677728565025 Latency:p50=494.1 p95=634.9 p99=729.7 max=761 mean=461.60}", "b8f44b3c15082c86e0bda5ebbbccc767c31159211f7294512f88f89968f7e475"},
	"unicast/MS(2,2)+faults/perm/single-port":        {"{Steps:13 Delivered:120 TotalHops:580 MaxLinkLoad:5 AvgLinkLoad:1.6111111111111112 MaxQueueLen:3 LoadGini:0.3786973180076628 Latency:p50=6.7 p95=10.0 p99=11.6 max=13 mean=6.15}", "fec0a5c77c1bcd4ad126dd677888c5f547fa488013606ea3c48f459ecbc5b137"},
	"buffered/1/MS(2,2)+faults/perm/single-port":     {"{Steps:18 Delivered:120 TotalHops:580 MaxLinkLoad:5 AvgLinkLoad:1.6111111111111112 MaxQueueLen:1 LoadGini:0.3786973180076628 Latency:p50=8.9 p95=16.5 p99=18.0 max=18 mean=8.93}", "29e812ff05c08b3d00b0497bb78f21a4189c6945ec00486f086fc4d7919e8e96"},
	"buffered/2/MS(2,2)+faults/perm/single-port":     {"{Steps:12 Delivered:120 TotalHops:580 MaxLinkLoad:5 AvgLinkLoad:1.6111111111111112 MaxQueueLen:2 LoadGini:0.3786973180076628 Latency:p50=7.7 p95=11.5 p99=12.0 max=12 mean=7.15}", "a2f3ebf49c9c27dc5d15b2d3917604d14fa089549b46bbf636fd2b7abe1b6845"},
	"buffered/64/MS(2,2)+faults/perm/single-port":    {"{Steps:14 Delivered:120 TotalHops:580 MaxLinkLoad:5 AvgLinkLoad:1.6111111111111112 MaxQueueLen:3 LoadGini:0.3786973180076628 Latency:p50=7.7 p95=11.5 p99=12.8 max=14 mean=7.15}", "2679531e5a5df5a898a4479194db988555a7a8da77b23a4e7112c4cb0671bdb3"},
	"unicast/MS(2,2)+faults/hotspot/single-port":     {"{Steps:79 Delivered:400 TotalHops:1996 MaxLinkLoad:72 AvgLinkLoad:5.544444444444444 MaxQueueLen:33 LoadGini:0.5368069472277889 Latency:p50=19.0 p95=71.6 p99=78.0 max=79 mean=27.93}", "631eeb7974e77fcd4825756cecc8ff08d242d6e5fb60091e59203953af52538d"},
	"buffered/1/MS(2,2)+faults/hotspot/single-port":  {"{Steps:172 Delivered:400 TotalHops:1996 MaxLinkLoad:72 AvgLinkLoad:5.544444444444444 MaxQueueLen:1 LoadGini:0.5368069472277889 Latency:p50=73.5 p95=153.1 p99=169.2 max=172 mean=75.65}", "442490b0aa7df0d63a8519021c9f815ee49d92d1724be1299ee454e816344922"},
	"buffered/2/MS(2,2)+faults/hotspot/single-port":  {"{Steps:82 Delivered:400 TotalHops:1996 MaxLinkLoad:72 AvgLinkLoad:5.544444444444444 MaxQueueLen:2 LoadGini:0.5368069472277889 Latency:p50=37.8 p95=77.3 p99=82.0 max=82 mean=39.22}", "2cf87219d6616fac08b4a2f33546164d92da5d7ecb3c6b544d2dd6dd6cacd570"},
	"buffered/64/MS(2,2)+faults/hotspot/single-port": {"{Steps:80 Delivered:400 TotalHops:1996 MaxLinkLoad:72 AvgLinkLoad:5.544444444444444 MaxQueueLen:33 LoadGini:0.5368069472277889 Latency:p50=20.0 p95=72.4 p99=78.5 max=80 mean=28.93}", "09d273bcf454acd6c4d55e8edc6ff5cbf12e8127aae030b1a666ff7ebf3a763f"},
	"unicast/MS(2,2)+faults/random/single-port":      {"{Steps:30 Delivered:400 TotalHops:1946 MaxLinkLoad:13 AvgLinkLoad:5.405555555555556 MaxQueueLen:7 LoadGini:0.2548018727874843 Latency:p50=15.2 p95=24.2 p99=27.4 max=30 mean=14.55}", "ef236a23b1f00bd7f10cea7f4399265bff9c9045f506abf663f69c01974d7666"},
	"openloop/0.05/MS(2,2)+faults/single-port":       {"{Offered:0.05 Throughput:0.050166666666666665 MeanLatency:5.51937984496124 Injected:932 Delivered:903 Dropped:11 Backlog:29 Latency:p50=6.1 p95=9.3 p99=10.5 max=12 mean=5.52}", "d287f876b22ea3043c7d6efce2ddeaa277256448d491649e1e382b3661513bd5"},
	"openloop/0.3/MS(2,2)+faults/single-port":        {"{Offered:0.3 Throughput:0.143 MeanLatency:40.94172494172494 Injected:5492 Delivered:2574 Dropped:55 Backlog:2918 Latency:p50=37.4 p95=90.0 p99=108.0 max=127 mean=40.94}", "ccbef3849035bc75a9160c97ba2f9727d19106e4be6406bd3b8badb69408b3f9"},
	"openloop/1/MS(2,2)+faults/single-port":          {"{Offered:1 Throughput:0.06444444444444444 MeanLatency:59.560344827586206 Injected:17852 Delivered:1160 Dropped:148 Backlog:16692 Latency:p50=55.4 p95=130.5 p99=148.0 max=148 mean=59.56}", "48dc0ac7f27ff274bb04910dffb62841fd75dc7c67f8131b9f588bf5e464e132"},
	"buffered/1/torus(4^1)/antipodal/single-port":    {"error: sim: RunUnicastBuffered: deadlock at step 1 with 4 packets in flight (buffer capacity 1)", "be50996765b82b0cac1d809053d2e363d9dfc0f80520efa03d62e87af7b074d2"},
}
