package metrics

import "fmt"

// Pin-limited throughput model (§4.2): "the maximum throughput of a network
// is inversely proportional to [diameter and average distance] for any
// switching technology under the constraint of constant pin-outs". With a
// per-node pin budget P, every node sources traffic that occupies, on
// average, D̄ link-traversals; aggregate link capacity is N·P, so the
// sustainable injection rate per node is bounded by P / D̄.

// PinLimitedThroughput returns the maximum per-node injection rate (packets
// per cycle, normalized to unit-capacity pins) of a network with per-node
// pin budget `pins` and average distance avgDist.
func PinLimitedThroughput(pins float64, avgDist float64) (float64, error) {
	if pins <= 0 || avgDist <= 0 {
		return 0, fmt.Errorf("metrics: PinLimitedThroughput: invalid pins=%v avgDist=%v", pins, avgDist)
	}
	return pins / avgDist, nil
}
