// Broadcast compares multinode-broadcast (MNB) and total-exchange (TE)
// completion times across a super Cayley graph, a star graph, and a
// hypercube of comparable size, under both port models — the
// communication-task comparison of §1 and §5.
package main

import (
	"fmt"
	"log"

	scg "repro"
)

func permTopo(build func() (*scg.Network, error)) scg.SimTopology {
	nw, err := build()
	if err != nil {
		log.Fatal(err)
	}
	topo, err := scg.NewSimNetwork(nw)
	if err != nil {
		log.Fatal(err)
	}
	return topo
}

func main() {
	topos := []scg.SimTopology{
		permTopo(func() (*scg.Network, error) { return scg.NewMacroStar(2, 2) }),    // N = 120
		permTopo(func() (*scg.Network, error) { return scg.NewRotationStar(2, 2) }), // N = 120
		permTopo(func() (*scg.Network, error) { return scg.NewMacroRotator(2, 2) }), // N = 120
		permTopo(func() (*scg.Network, error) { return scg.NewStarGraph(5) }),       // N = 120
		permTopo(func() (*scg.Network, error) { return scg.NewISNetwork(5) }),       // N = 120
	}
	hyp, err := scg.NewSimHypercube(7) // N = 128
	if err != nil {
		log.Fatal(err)
	}
	topos = append(topos, hyp)

	fmt.Println("Multinode broadcast (MNB): every node's message reaches every node")
	fmt.Printf("%-16s %6s %7s %14s %14s\n", "network", "N", "degree", "all-port", "single-port")
	for _, topo := range topos {
		all, err := scg.RunBroadcast(topo, scg.AllPort, 0, nil)
		if err != nil {
			log.Fatal(err)
		}
		single, err := scg.RunBroadcast(topo, scg.SinglePort, 0, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16s %6d %7d %8d steps %8d steps\n",
			topo.Name(), topo.NumNodes(), topo.Degree(), all.Steps, single.Steps)
	}

	fmt.Println("\nTotal exchange (TE): one distinct packet per ordered node pair (all-port)")
	fmt.Printf("%-16s %10s %14s %14s\n", "network", "steps", "max link load", "load balance")
	for _, topo := range topos {
		res, err := scg.RunUnicast(topo, scg.TotalExchange(topo.NumNodes()), scg.AllPort, 0, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16s %10d %14d %14.3f\n",
			topo.Name(), res.Steps, res.MaxLinkLoad, float64(res.MaxLinkLoad)/res.AvgLinkLoad)
	}
	fmt.Println("\nload balance = max/avg per-link traffic; 1.000 means perfectly balanced links,")
	fmt.Println("the property §5 claims for suitably constructed super Cayley graphs.")

	// Structured MNB: each message rides its own translated spanning tree —
	// N-1 hops per message instead of flooding every link.
	fmt.Println("\nStructured (translated-tree) MNB vs flooding on MS(2,2):")
	msNet, err := scg.NewMacroStar(2, 2)
	if err != nil {
		log.Fatal(err)
	}
	msTopo, err := scg.NewSimNetwork(msNet)
	if err != nil {
		log.Fatal(err)
	}
	for _, model := range []scg.PortModel{scg.AllPort, scg.SinglePort} {
		tree, err := scg.SimulateTreeMNB(msNet, model, 0)
		if err != nil {
			log.Fatal(err)
		}
		flood, err := scg.RunBroadcast(msTopo, model, 0, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-12s tree %4d steps / %6d hops | flood %4d steps / %6d hops\n",
			model, tree.Steps, tree.TotalHops, flood.Steps, flood.TotalHops)
	}
}
