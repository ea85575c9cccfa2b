// Faults measures resilience to random link failures and the structured
// broadcast machinery: spanning-tree MNB bounds versus the flooding
// simulator, and connectivity/diameter inflation as wires are cut.
package main

import (
	"fmt"
	"log"

	scg "repro"
)

func main() {
	nw, err := scg.NewMacroStar(2, 2) // N = 120, degree 3
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(nw)

	// Structured broadcast: BFS spanning tree of height = diameter.
	tree, err := scg.NewBroadcastTree(nw, scg.IdentityNode(nw.K()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nBFS broadcast tree: height %d (= diameter)\n", tree.Height)
	fmt.Printf("single-node broadcast: all-port %d steps, single-port %d steps\n",
		tree.BroadcastTime(scg.AllPort), tree.BroadcastTime(scg.SinglePort))
	topo, err := scg.NewSimNetwork(nw)
	if err != nil {
		log.Fatal(err)
	}
	for _, model := range []scg.PortModel{scg.AllPort, scg.SinglePort} {
		flood, err := scg.RunBroadcast(topo, model, 0, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("MNB %-11s: pipelined tree bound %d steps, measured flood %d steps\n",
			model, scg.MNBPipelinedBound(tree, model, nw.Degree()), flood.Steps)
	}

	// Fault injection: cut random wires and measure what survives.
	fmt.Println("\nrandom wire failures (mirrored directed pairs), 30 trials each:")
	fmt.Printf("%7s %12s %14s %16s\n", "faults", "connected", "worst ecc +", "mean dist xfl")
	for _, faults := range []int{1, 2, 4, 8, 16} {
		tr, err := scg.RandomFaultTrials(nw, faults, 30, 7)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%7d %9d/30 %14d %16.4f\n",
			faults, tr.ConnectedRuns, tr.WorstEccDelta, tr.MeanDistInflation)
	}
	// End-to-end fault-aware routing: cut 4 wires and run a full permutation
	// workload over the surviving network.
	fs, err := scg.MirrorFaultsUndirected(nw, scg.NewFaultSet(
		scg.FaultLink{Node: 3, Gen: 0}, scg.FaultLink{Node: 40, Gen: 1},
		scg.FaultLink{Node: 77, Gen: 2}, scg.FaultLink{Node: 101, Gen: 0}))
	if err != nil {
		log.Fatal(err)
	}
	faulted, err := scg.NewFaultRoutedTopology(nw, fs)
	if err != nil {
		log.Fatal(err)
	}
	healthy, err := scg.NewSimNetwork(nw)
	if err != nil {
		log.Fatal(err)
	}
	pkts := scg.PermutationRouting(nw.Nodes(), 9)
	resF, err := scg.RunUnicast(faulted, pkts, scg.AllPort, 0, nil)
	if err != nil {
		log.Fatal(err)
	}
	resH, err := scg.RunUnicast(healthy, pkts, scg.AllPort, 0, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npermutation routing with 4 cut wires: %d steps (healthy: %d) - all %d packets delivered\n",
		resF.Steps, resH.Steps, resF.Delivered)

	fmt.Println("\nDegree-3 MS(2,2) keeps full connectivity under almost all small fault")
	fmt.Println("sets and degrades gracefully - the fault-tolerance behaviour the paper")
	fmt.Println("cites from the star-graph literature.")
}
