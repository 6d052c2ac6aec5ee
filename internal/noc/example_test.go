package noc_test

import (
	"fmt"

	"repro/internal/noc"
	"repro/internal/sim"
)

// Example builds a 4x4 folded-torus network, attaches a synthetic
// traffic source to every switch and runs it for 2000 cycles — the
// minimal network-only simulation. Everything is deterministic per seed,
// so the printed counters are stable.
func Example() {
	topo, err := noc.NewTopology(4, 4)
	if err != nil {
		panic(err)
	}
	e := sim.NewEngine()
	network := noc.NewRouterNetwork(e, topo, noc.RouterDeflection)
	for id := 0; id < topo.NumNodes(); id++ {
		t := noc.NewTrafficNode(id, topo, noc.TrafficConfig{
			Pattern: noc.Tornado,
			Rate:    0.1, // flits/node/cycle offered
		}, 1)
		network.Attach(id, t)
		e.Register(sim.PhaseNode, t)
	}
	e.Run(2000)

	s := &network.Stats
	fmt.Printf("injected=%d delivered=%d in-flight=%d\n",
		s.Injected.Value(), s.Delivered.Value(), network.InFlight())
	fmt.Printf("mean latency %.1f cycles over %.1f hops\n",
		s.Latency.Mean(), s.Hops.Mean())
	// Output:
	// injected=3123 delivered=3120 in-flight=3
	// mean latency 2.0 cycles over 2.0 hops
}

// ExampleParsePattern resolves patterns from user-facing names, as a
// scenario file's "patterns" list does.
func ExampleParsePattern() {
	for _, name := range []string{"uniform", "Bit_Complement", "7"} {
		p, err := noc.ParsePattern(name)
		if err != nil {
			panic(err)
		}
		fmt.Println(p)
	}
	// Output:
	// uniform
	// bit-complement
	// tornado
}
