// NoC traffic: characterize the bare network with synthetic traffic —
// latency versus offered load for the deflection-routed (hot potato)
// switches and the buffered XY baseline, on uniform and transpose
// patterns. This is the network-level evaluation that motivates the
// paper's router choice: comparable latency at low load with zero flit
// buffering.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/noc"
)

const (
	pointCycles = 2000
	seed        = 20100308 // DATE 2010 conference date
)

func main() {
	log.SetFlags(0)

	topo, err := noc.NewTopology(4, 4)
	if err != nil {
		log.Fatal(err)
	}
	for _, pattern := range []noc.Pattern{noc.Uniform, noc.Transpose} {
		fmt.Printf("pattern: %v (4x4 folded torus, %d cycles per point)\n", pattern, pointCycles)
		fmt.Printf("  %-8s %-22s %-22s\n", "load", "deflection (lat/defl)", "XY buffered (lat/peak-buf)")
		for _, rate := range []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5} {
			d := measure(topo, noc.RouterDeflection, pattern, rate)
			x := measure(topo, noc.RouterXY, pattern, rate)
			fmt.Printf("  %-8.2f %6.1f cyc %6d      %6.1f cyc %4d flits\n",
				rate, d.MeanLatency, d.Deflections, x.MeanLatency, x.PeakBuffer)
		}
		fmt.Println()
	}
	fmt.Println("deflection keeps zero per-switch flit storage; the XY router's")
	fmt.Println("peak queue column is the buffering a real implementation needs.")
}

// measure runs one point with no warmup: its window is the whole run.
func measure(topo noc.Topology, router noc.RouterKind, p noc.Pattern, rate float64) noc.Measurement {
	m, err := noc.MeasureCtx(context.Background(), topo, noc.MeasureConfig{
		Router:  router,
		Traffic: noc.TrafficConfig{Pattern: p, Rate: rate},
		Measure: pointCycles,
		Seed:    seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	return m
}
