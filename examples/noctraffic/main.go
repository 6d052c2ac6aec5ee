// NoC traffic: characterize the bare network with synthetic traffic —
// latency versus offered load for the deflection-routed (hot potato)
// switches and the buffered XY baseline, on uniform and transpose
// patterns. This is the network-level evaluation that motivates the
// paper's router choice: comparable latency at low load with zero flit
// buffering.
package main

import (
	"fmt"
	"log"

	"repro/internal/noc"
	"repro/internal/sim"
)

const (
	warmCycles = 2000
	seed       = 20100308 // DATE 2010 conference date
)

func main() {
	log.SetFlags(0)

	topo, err := noc.NewTopology(4, 4)
	if err != nil {
		log.Fatal(err)
	}
	for _, pattern := range []noc.Pattern{noc.Uniform, noc.Transpose} {
		fmt.Printf("pattern: %v (4x4 folded torus, %d cycles per point)\n", pattern, warmCycles)
		fmt.Printf("  %-8s %-22s %-22s\n", "load", "deflection (lat/defl)", "XY buffered (lat/peak-buf)")
		for _, rate := range []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5} {
			dLat, defl := runDeflection(topo, pattern, rate)
			xLat, peak := runXY(topo, pattern, rate)
			fmt.Printf("  %-8.2f %6.1f cyc %6d      %6.1f cyc %4d flits\n",
				rate, dLat, defl, xLat, peak)
		}
		fmt.Println()
	}
	fmt.Println("deflection keeps zero per-switch flit storage; the XY router's")
	fmt.Println("peak queue column is the buffering a real implementation needs.")
}

func runDeflection(topo noc.Topology, p noc.Pattern, rate float64) (meanLat float64, deflections int64) {
	e := sim.NewEngine()
	n := noc.NewRouterNetwork(e, topo, noc.RouterDeflection)
	for i := 0; i < topo.NumNodes(); i++ {
		tn := noc.NewTrafficNode(i, topo, noc.TrafficConfig{Pattern: p, Rate: rate}, seed)
		n.Attach(i, tn)
		e.Register(sim.PhaseNode, tn)
	}
	e.Run(warmCycles)
	return n.Stats.Latency.Mean(), n.TotalDeflections()
}

func runXY(topo noc.Topology, p noc.Pattern, rate float64) (meanLat float64, peakQueue int) {
	e := sim.NewEngine()
	n := noc.NewRouterNetwork(e, topo, noc.RouterXY)
	for i := 0; i < topo.NumNodes(); i++ {
		tn := noc.NewTrafficNode(i, topo, noc.TrafficConfig{Pattern: p, Rate: rate}, seed)
		n.Attach(i, tn)
		e.Register(sim.PhaseNode, tn)
	}
	e.Run(warmCycles)
	return n.Stats.Latency.Mean(), n.PeakBuffer()
}
