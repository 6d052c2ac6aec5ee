// Benchmarks for the architecture ablations no scenario file or
// medea-experiments figure covers. Each Benchmark corresponds to one
// experiment in DESIGN.md's index; key scalar results are reported as
// custom metrics so -benchmem runs record them. Absolute cycle counts are
// not comparable to the authors' Xtensa testbed; the shapes are the
// reproduction target (DESIGN.md's experiment index records what must
// hold). How fast the simulator runs is bench/'s job, not these
// benchmarks'. The paper's figures are cmd/medea-experiments, whose Quick
// tables testdata/*.golden pins byte for byte.
package medea_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/bridge"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/jacobi"
	"repro/internal/matmul"
	"repro/internal/noc"
	"repro/internal/pe"
	"repro/internal/sim"
	"repro/internal/syncbench"
)

// BenchmarkDeflectionVsXY is the ablation A-1: deflection routing against
// a buffered XY router on adversarial transpose traffic.
func BenchmarkDeflectionVsXY(b *testing.B) {
	topo, _ := noc.NewTopology(4, 4)
	const rate, cycles = 0.4, 5000
	b.Run("deflection", func(b *testing.B) {
		var lat float64
		for i := 0; i < b.N; i++ {
			e := sim.NewEngine()
			n := noc.NewNetwork(e, topo)
			for id := 0; id < topo.NumNodes(); id++ {
				tn := noc.NewTrafficNode(id, topo, noc.TrafficConfig{Pattern: noc.Transpose, Rate: rate}, 1)
				n.Attach(id, tn)
				e.Register(sim.PhaseNode, tn)
			}
			e.Run(cycles)
			lat = n.Stats.Latency.Mean()
		}
		b.ReportMetric(lat, "flit-latency-cycles")
		b.ReportMetric(0, "buffer-flits")
	})
	b.Run("xy-buffered", func(b *testing.B) {
		var lat float64
		var peak int
		for i := 0; i < b.N; i++ {
			e := sim.NewEngine()
			n := noc.NewXYNetwork(e, topo)
			for id := 0; id < topo.NumNodes(); id++ {
				tn := noc.NewTrafficNode(id, topo, noc.TrafficConfig{Pattern: noc.Transpose, Rate: rate}, 1)
				n.Attach(id, tn)
				e.Register(sim.PhaseNode, tn)
			}
			e.Run(cycles)
			lat = n.Stats.Latency.Mean()
			peak = n.PeakBuffer()
		}
		b.ReportMetric(lat, "flit-latency-cycles")
		b.ReportMetric(float64(peak), "buffer-flits")
	})
}

// BenchmarkArbiterVariants is the ablation A-2: the three NoC-access
// arbiter configurations of Section II-B under the Jacobi workload.
func BenchmarkArbiterVariants(b *testing.B) {
	for _, mode := range []bridge.ArbiterMode{bridge.ArbMux, bridge.ArbSingleFIFO, bridge.ArbDualFIFO} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			var cyc int64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig(6, 8, cache.WriteBack)
				cfg.Arbiter = mode
				res, err := jacobi.RunCtx(context.Background(), cfg, jacobi.Spec{N: 30, Warmup: 1, Measured: 1}, jacobi.HybridFull)
				if err != nil {
					b.Fatal(err)
				}
				cyc = res.CyclesPerIteration
			}
			b.ReportMetric(float64(cyc), "cycles/iter")
		})
	}
}

// BenchmarkCostModelAblation compares the default core (Multiply High
// option, 26-cycle multiplies) with the 60-cycle-multiply configuration
// the paper mentions as the cheaper alternative.
func BenchmarkCostModelAblation(b *testing.B) {
	run := func(b *testing.B, mulHigh bool) {
		var cyc int64
		for i := 0; i < b.N; i++ {
			cfg := core.DefaultConfig(4, 16, cache.WriteBack)
			if !mulHigh {
				cfg.Cost = pe.MulHighOff()
			}
			res, err := jacobi.RunCtx(context.Background(), cfg, jacobi.Spec{N: 30, Warmup: 1, Measured: 1}, jacobi.HybridFull)
			if err != nil {
				b.Fatal(err)
			}
			cyc = res.CyclesPerIteration
		}
		b.ReportMetric(float64(cyc), "cycles/iter")
	}
	b.Run("mul-high-26cy", func(b *testing.B) { run(b, true) })
	b.Run("no-mul-high-60cy", func(b *testing.B) { run(b, false) })
}

// BenchmarkMatMulBroadcast exercises the future-work kernel (matrix
// multiply): distributing the shared matrix over the message path versus
// every core reading it through the memory node.
func BenchmarkMatMulBroadcast(b *testing.B) {
	run := func(b *testing.B, v matmul.Variant) {
		var total, transfer int64
		for i := 0; i < b.N; i++ {
			cfg := core.DefaultConfig(8, 16, cache.WriteBack)
			res, err := matmul.RunCtx(context.Background(), cfg, matmul.Spec{N: 24}, v)
			if err != nil {
				b.Fatal(err)
			}
			total, transfer = res.TotalCycles, res.TransferCycles
		}
		b.ReportMetric(float64(total), "total-cycles")
		b.ReportMetric(float64(transfer), "transfer-cycles")
	}
	b.Run("message-broadcast", func(b *testing.B) { run(b, matmul.HybridFull) })
	b.Run("shared-memory-reads", func(b *testing.B) { run(b, matmul.PureSM) })
}

// BenchmarkMPMMUCacheSize sweeps the memory node's local cache (the
// paper's stated MPMMU-optimization future work): how much the single
// shared cache in front of DDR matters for the pure shared-memory model.
func BenchmarkMPMMUCacheSize(b *testing.B) {
	for _, kb := range []int{4, 32, 128} {
		kb := kb
		b.Run(byteSizeName(kb), func(b *testing.B) {
			var cyc int64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig(6, 16, cache.WriteBack)
				cfg.MPMMUCacheKB = kb
				res, err := jacobi.RunCtx(context.Background(), cfg, jacobi.Spec{N: 60, Warmup: 1, Measured: 1}, jacobi.PureSM)
				if err != nil {
					b.Fatal(err)
				}
				cyc = res.CyclesPerIteration
			}
			b.ReportMetric(float64(cyc), "cycles/iter")
		})
	}
}

func byteSizeName(kb int) string { return fmt.Sprintf("%dkB", kb) }

// BenchmarkAssociativity explores L1 set associativity (the paper does
// not state the Xtensa configuration's; the calibrated experiments use
// direct-mapped): 2-way LRU removes conflict misses at the same capacity.
func BenchmarkAssociativity(b *testing.B) {
	for _, ways := range []int{1, 2, 4} {
		ways := ways
		b.Run(fmt.Sprintf("%d-way", ways), func(b *testing.B) {
			var cyc int64
			var miss float64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig(6, 8, cache.WriteBack)
				cfg.CacheWays = ways
				res, err := jacobi.RunCtx(context.Background(), cfg, jacobi.Spec{N: 60, Warmup: 1, Measured: 1}, jacobi.HybridFull)
				if err != nil {
					b.Fatal(err)
				}
				cyc, miss = res.CyclesPerIteration, res.MissRate
			}
			b.ReportMetric(float64(cyc), "cycles/iter")
			b.ReportMetric(100*miss, "miss-%")
		})
	}
}

// BenchmarkBarrierLatency measures the synchronization primitives in
// isolation: the eMPI message barrier against the lock-based shared-memory
// barrier (the paper's central "low-latency synchronization" claim,
// without a workload around it).
func BenchmarkBarrierLatency(b *testing.B) {
	for _, kind := range []syncbench.Kind{syncbench.MessageBarrier, syncbench.LockBarrier} {
		for _, cores := range []int{4, 12} {
			kind, cores := kind, cores
			b.Run(fmt.Sprintf("%v/%d-cores", kind, cores), func(b *testing.B) {
				var cyc int64
				for i := 0; i < b.N; i++ {
					res, err := syncbench.MeasureWithCtx(context.Background(), kind, core.DefaultConfig(cores, 8, cache.WriteBack), 20)
					if err != nil {
						b.Fatal(err)
					}
					cyc = res.CyclesPerRound
				}
				b.ReportMetric(float64(cyc), "cycles/barrier")
			})
		}
	}
}

// BenchmarkMultiMPMMU scales the number of memory nodes (the paper notes
// "there are no limitations in the number of MPMMUs of the system"):
// line-interleaving shared memory across 1, 2 and 4 MPMMUs relieves the
// serialization bottleneck of the pure shared-memory model.
func BenchmarkMultiMPMMU(b *testing.B) {
	for _, m := range []int{1, 2, 4} {
		m := m
		b.Run(fmt.Sprintf("%d-mmu", m), func(b *testing.B) {
			var cyc int64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig(8, 16, cache.WriteBack)
				cfg.NumMPMMUs = m
				res, err := jacobi.RunCtx(context.Background(), cfg, jacobi.Spec{N: 60, Warmup: 1, Measured: 1}, jacobi.PureSM)
				if err != nil {
					b.Fatal(err)
				}
				cyc = res.CyclesPerIteration
			}
			b.ReportMetric(float64(cyc), "cycles/iter")
		})
	}
}
