package noc

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/sim"
)

// tickRig builds bench's tick rig: a 4x4 folded torus (the paper's mesh:
// 16 switches, 64 link registers) of the given router with uniform traffic
// at the given offered load, every component stepping every cycle, warmed
// to steady-state occupancy.
func tickRig(tb testing.TB, kind RouterKind, rate float64) *sim.Engine {
	topo, err := NewTopology(4, 4)
	if err != nil {
		tb.Fatal(err)
	}
	e := sim.NewEngine()
	e.SetFastForward(false)
	n := NewRouterNetwork(e, topo, kind)
	for id := 0; id < topo.NumNodes(); id++ {
		tn := NewTrafficNode(id, topo, TrafficConfig{Pattern: Uniform, Rate: rate}, 1)
		n.Attach(id, tn)
		e.Register(sim.PhaseNode, tn)
	}
	e.Run(100)
	return e
}

// BenchmarkTick measures the per-cycle cost of the engine for every router
// at three offered loads (the shape of bench's noc.tick_ns.* probes). At
// low load almost every link register is idle, which is the common case in
// the calibrated workloads — the engine must not pay a commit per idle
// register; at 0.40 the cost is the routers' own. For one router's profile:
//
//	go test ./internal/noc -run '^$' -bench 'Tick/adaptive/load-0.40' -cpuprofile cpu.out
func BenchmarkTick(b *testing.B) {
	for _, kind := range AllRouters() {
		for _, rate := range []float64{0, 0.05, 0.4} {
			b.Run(fmt.Sprintf("%v/load-%.2f", kind, rate), func(b *testing.B) {
				e := tickRig(b, kind, rate)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.Tick()
				}
			})
		}
	}
}

// BenchmarkIdlePoint runs one point of bench's noc-idle workload: the same
// torus at load 0.001 for 1.5 M cycles, wake-driven, of which some 90 % are
// jumped over. What is left to pay for is mostly the coin each of the 16
// sources draws for every cycle it sleeps through (DESIGN.md, "Idle
// sources"), so ns/source-cycle is that coin's cost from above. For the
// profile:
//
//	go test ./internal/noc -run '^$' -bench IdlePoint -cpuprofile cpu.out
func BenchmarkIdlePoint(b *testing.B) {
	topo, err := NewTopology(4, 4)
	if err != nil {
		b.Fatal(err)
	}
	mc := MeasureConfig{
		Router:  RouterDeflection,
		Traffic: TrafficConfig{Pattern: Uniform, Rate: 0.001},
		Warmup:  1000, Measure: 1_500_000, Seed: 1,
	}
	for b.Loop() {
		if _, err := MeasureCtx(context.Background(), topo, mc); err != nil {
			b.Fatal(err)
		}
	}
	sourceCycles := float64(b.N) * float64(topo.NumEndpoints()) * float64(mc.Warmup+mc.Measure)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/sourceCycles, "ns/source-cycle")
}

// TestTickAllocFree holds every router to a tick that allocates nothing
// once the network has warmed up (queues at their working depth, scratch
// on the stack), at the load the saturated benchmark runs.
func TestTickAllocFree(t *testing.T) {
	for _, kind := range AllRouters() {
		e := tickRig(t, kind, 0.4)
		e.Run(2000)
		if allocs := testing.AllocsPerRun(1000, e.Tick); allocs != 0 {
			t.Errorf("%v: %v allocations per tick, want 0", kind, allocs)
		}
	}
}
