// Benchmarks regenerating every table and figure of the paper's
// evaluation section. Each Benchmark corresponds to one experiment in
// DESIGN.md's index; the rendered tables land in the benchmark log (-v),
// and key scalar results are reported as custom metrics so -benchmem runs
// record them. Absolute cycle counts are not comparable to the authors'
// Xtensa testbed; the shapes are the reproduction target (DESIGN.md's
// experiment index records what must hold).
//
// The benchmarks use the Quick fidelity grid; run cmd/medea-experiments
// -full for the complete 168-point sweeps.
package medea_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/bridge"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/jacobi"
	"repro/internal/matmul"
	"repro/internal/noc"
	"repro/internal/pe"
	"repro/internal/resultcache"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/syncbench"
	"repro/internal/trace"
)

// BenchmarkFig6 regenerates Figure 6: execution time of one 60x60 Jacobi
// iteration across core counts, cache sizes and write policies.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		table, pts, err := dse.Fig6Ctx(context.Background(), dse.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + table)
			reportSpread(b, pts)
		}
	}
}

// BenchmarkFig7 regenerates Figure 7: the Pareto/kill-rule speedup-vs-area
// curve for the 60x60 array.
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, pts, err := dse.Fig6Ctx(context.Background(), dse.Quick)
		if err != nil {
			b.Fatal(err)
		}
		table := dse.Fig7(pts)
		if i == 0 {
			b.Log("\n" + table)
			front := dse.ParetoFront(pts)
			knee := dse.KillRuleKnee(front)
			b.ReportMetric(front[knee].Speedup, "optimal-speedup")
			b.ReportMetric(front[knee].AreaMM2, "optimal-mm2")
		}
	}
}

// BenchmarkFig8 regenerates Figure 8: the 30x30 array, write-back only.
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		table, pts, err := dse.Fig8Ctx(context.Background(), dse.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + table)
			reportSpread(b, pts)
		}
	}
}

// BenchmarkFig9 regenerates Figure 9: speedup vs area for the 30x30 array.
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, pts, err := dse.Fig8Ctx(context.Background(), dse.Quick)
		if err != nil {
			b.Fatal(err)
		}
		table := dse.Fig9(pts)
		if i == 0 {
			b.Log("\n" + table)
		}
	}
}

// BenchmarkHybridVsSharedMemory regenerates the paper's headline prose
// claim (T-1): hybrid vs pure shared memory, 2x below the cache knee
// growing to >5x at 10 cores / 16 kB.
func BenchmarkHybridVsSharedMemory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		table, rows, err := dse.HybridComparisonCtx(context.Background(), dse.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + table)
			last := rows[len(rows)-1]
			b.ReportMetric(last.FullVsSM, "full-vs-sm-at-max-cores")
			b.ReportMetric(rows[0].FullVsSM, "full-vs-sm-at-2-cores")
		}
	}
}

// BenchmarkSyncVsFullMessagePassing regenerates T-2: in the miss-dominated
// regime the sync-only hybrid tracks the full hybrid within 2-20%.
func BenchmarkSyncVsFullMessagePassing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		table, rows, err := dse.SmallCacheComparisonCtx(context.Background(), dse.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + table)
			b.ReportMetric(rows[len(rows)-1].FullVsSync, "full-vs-sync")
		}
	}
}

// BenchmarkSimulatorThroughput documents the simulation speed (the paper's
// T-3: their SystemC model ran 15x faster than HDL-ISS, enabling 168
// configurations per day; this records our cycles/second).
func BenchmarkSimulatorThroughput(b *testing.B) {
	var cycles int64
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig(8, 16, cache.WriteBack)
		res, err := jacobi.RunCtx(context.Background(), cfg, jacobi.Spec{N: 60, Warmup: 1, Measured: 1}, jacobi.HybridFull)
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.TotalCycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
}

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

// BenchmarkRouterAblation is the experiment R-1
// (examples/scenarios/router-ablation.json): all four routers under
// identical adversarial transpose traffic, reporting per-router saturation
// throughput and peak buffer occupancy. The ordering assertions live in
// internal/scenario.TestRouterAblationOrdering; this benchmark records the
// numbers behind them.
func BenchmarkRouterAblation(b *testing.B) {
	s := loadExample(b, "router-ablation.json")
	for i := 0; i < b.N; i++ {
		rows, err := scenario.RunCtx(context.Background(), s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + scenario.Table(rows))
			byRouter := func(r scenario.Result) string { return r.Router }
			sat := maxBy(rows, byRouter, func(r scenario.Result) float64 { return r.Throughput })
			peak := maxBy(rows, byRouter, func(r scenario.Result) float64 { return float64(r.PeakBuffer) })
			for _, kind := range noc.AllRouters() {
				b.ReportMetric(sat[kind.String()], kind.String()+"-sat-throughput")
				b.ReportMetric(peak[kind.String()], kind.String()+"-peak-buffer")
			}
		}
	}
}

// loadExample loads one of the shipped scenario files.
func loadExample(b *testing.B, name string) *scenario.Scenario {
	b.Helper()
	s, err := scenario.Load("examples/scenarios/" + name)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// maxBy reduces scenario rows to the largest metric each key reached
// across the sweep: saturation throughput, worst buffer occupancy, worst
// deflection rate.
func maxBy(rows []scenario.Result, key func(scenario.Result) string, metric func(scenario.Result) float64) map[string]float64 {
	best := map[string]float64{}
	for _, r := range rows {
		if v := metric(r); v > best[key(r)] {
			best[key(r)] = v
		}
	}
	return best
}

// BenchmarkTopologyAblation is the experiment T-3
// (examples/scenarios/topology-ablation.json): the paper's deflection
// router under identical uniform traffic on all three fabrics serving the
// same endpoint grid, reporting per-fabric saturation throughput and
// worst deflection cost. The ordering assertions live in
// internal/scenario.TestTopologyAblationOrdering; this benchmark records
// the numbers behind them.
func BenchmarkTopologyAblation(b *testing.B) {
	s := loadExample(b, "topology-ablation.json")
	for i := 0; i < b.N; i++ {
		rows, err := scenario.RunCtx(context.Background(), s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + scenario.Table(rows))
			byTopo := func(r scenario.Result) string { return r.Topology }
			sat := maxBy(rows, byTopo, func(r scenario.Result) float64 { return r.Throughput })
			defl := maxBy(rows, byTopo, func(r scenario.Result) float64 { return r.DeflectionRate })
			for _, kind := range noc.AllTopologies() {
				b.ReportMetric(sat[kind.String()], kind.String()+"-sat-throughput")
				b.ReportMetric(defl[kind.String()], kind.String()+"-peak-defl-rate")
			}
		}
	}
}

// BenchmarkKernelAblation is the experiment K-1: every compute kernel
// (jacobi, matmul, syncbench) in both of the paper's programming models
// across core counts, reporting the per-kernel peak message-passing
// speedup and the best shared-memory-over-message cycle ratio. The shape
// assertions live in internal/scenario.TestKernelAblationGolden and
// dse.TestKernelAblationShapes; this benchmark records the numbers behind
// them.
func BenchmarkKernelAblation(b *testing.B) {
	o := dse.DefaultKernelAblationOptions()
	for i := 0; i < b.N; i++ {
		points, err := dse.KernelAblationCtx(context.Background(), o)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + dse.KernelAblationTable(o, points))
			adv := dse.MessagingAdvantageByKernel(points)
			peak := dse.PeakSpeedupByKernel(points)
			for _, kind := range dse.AllKernels() {
				b.ReportMetric(peak[kind], kind.String()+"-peak-speedup")
				b.ReportMetric(adv[kind], kind.String()+"-sm-over-mp")
			}
		}
	}
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

// BenchmarkScenarioPatternSweep runs the shipped all-patterns scenario
// through the declarative runner: 8 patterns x 3 loads x 2 seeds on the
// 4x4 torus. It both times the scenario layer's batch overhead and keeps
// the full pattern library exercised end-to-end.
func BenchmarkScenarioPatternSweep(b *testing.B) {
	s, err := scenario.Load("examples/scenarios/patterns-sweep.json")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		results, err := scenario.RunCtx(context.Background(), s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + scenario.Table(results))
			b.ReportMetric(float64(len(results)), "points")
		}
	}
}

// BenchmarkResultCacheWarmSweep measures what the result cache buys a
// rerun: the fig8-quick sweep against a pre-warmed in-memory store, every
// point a hit (cache effectiveness is reported as hit-rate; the cold cost
// is BenchmarkFig8's). This is the number BENCH_<date>.json snapshots
// track as cache.warm_ns.
func BenchmarkResultCacheWarmSweep(b *testing.B) {
	root := resultcache.New(resultcache.NewMemoryStore(0))
	o := dse.Fig8Options(dse.Quick)
	o.Cache = root
	// Warm the store once, outside the timed region.
	cold, err := dse.SweepCtx(context.Background(), o)
	if err != nil {
		b.Fatal(err)
	}
	o.Cache = root.Scope() // count only the warm reruns
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		warm, err := dse.SweepCtx(context.Background(), o)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			if dse.PointsCSV(warm) != dse.PointsCSV(cold) {
				b.Fatal("warm-cache sweep differs from cold sweep")
			}
			b.ReportMetric(float64(len(warm)), "points")
		}
	}
	st := o.Cache.Stats()
	b.ReportMetric(100*st.HitRate(), "hit-rate-%")
}

// BenchmarkResultCacheHit measures the raw per-lookup cost of a store hit
// — the fixed overhead the cache adds to every already-computed point.
func BenchmarkResultCacheHit(b *testing.B) {
	run := func(b *testing.B, store resultcache.Store) {
		c := resultcache.New(store)
		key := resultcache.NewKey("bench").Int("i", 1).Sum()
		payload := []byte(`{"cycles_per_iter":94177,"miss_rate":0.01}`)
		if _, _, err := c.GetOrCompute(key, func() ([]byte, error) { return payload, nil }); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, hit, err := c.GetOrCompute(key, func() ([]byte, error) { return payload, nil })
			if err != nil || !hit {
				b.Fatal("expected a hit")
			}
		}
	}
	b.Run("memory", func(b *testing.B) { run(b, resultcache.NewMemoryStore(0)) })
	b.Run("disk", func(b *testing.B) {
		store, err := resultcache.NewDiskStore(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		run(b, store)
	})
}

// BenchmarkCacheKeyDerivation measures the canonical key derivation —
// per-point overhead paid even on misses.
func BenchmarkCacheKeyDerivation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		resultcache.NewKey("dse/jacobi").
			Int("n", 30).Int("cores", 8).Int("cache_kb", 16).
			Str("policy", "WB").Str("variant", "hybrid-full").
			Int("warmup", 1).Int("measured", 1).Sum()
	}
}

// BenchmarkMerkleLedger measures building the run ledger over a
// fig8-sized result set and diffing two single-point-divergent runs.
func BenchmarkMerkleLedger(b *testing.B) {
	leaves := make([][]byte, 168)
	for i := range leaves {
		leaves[i] = []byte(fmt.Sprintf(`{"cores":%d,"cycles":%d}`, i%14+2, 90000+i))
	}
	mutated := append([][]byte(nil), leaves...)
	mutated[84] = []byte(`{"cores":8,"cycles":1}`)
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			resultcache.NewTree(leaves)
		}
	})
	b.Run("diff", func(b *testing.B) {
		t1 := resultcache.NewTree(leaves)
		t2 := resultcache.NewTree(mutated)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if d := t1.Diff(t2); len(d) != 1 {
				b.Fatalf("diff = %v", d)
			}
		}
		b.ReportMetric(float64(t1.DiffComparisons()), "hash-comparisons")
	})
}

// BenchmarkTraceReplay is the trace workload's replay path: one uniform
// 4x4 run is recorded once in setup, then each iteration replays the
// capture through the deflection torus via the scenario runner — the
// deserialization + replay cost a trace-driven sweep pays per point.
func BenchmarkTraceReplay(b *testing.B) {
	topo, err := noc.NewTopology(4, 4)
	if err != nil {
		b.Fatal(err)
	}
	tr := trace.New(trace.Header{
		Width: 4, Height: 4, Topology: "torus", Router: "deflection",
		Pattern: "uniform", Rate: 0.15, Seed: 1, Warmup: 200, Measure: 4000,
	})
	src, err := noc.MeasureCtx(context.Background(), topo, noc.MeasureConfig{
		Router:  noc.RouterDeflection,
		Traffic: noc.TrafficConfig{Pattern: noc.Uniform, Rate: 0.15, Record: tr},
		Warmup:  200, Measure: 4000, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	data := tr.Encode()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loaded, err := trace.Decode(data)
		if err != nil {
			b.Fatal(err)
		}
		events := make([]noc.ReplayEvent, len(loaded.Events))
		for j, ev := range loaded.Events {
			events[j] = noc.ReplayEvent{Cycle: ev.Cycle, Src: ev.Src, Dst: ev.Dst,
				Meta: ev.Meta, Req: ev.Kind == trace.EventMessage}
		}
		m, err := noc.MeasureReplayCtx(context.Background(), topo, noc.ReplayConfig{
			Router: noc.RouterDeflection, Events: events, Warmup: 200, Measure: 4000,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			if m.Delivered != src.Delivered {
				b.Fatalf("replay delivered %d, source %d", m.Delivered, src.Delivered)
			}
			b.ReportMetric(float64(len(events)), "events")
			b.ReportMetric(float64(m.CyclesSkipped), "cycles-skipped")
		}
	}
}

// BenchmarkServiceWorkload is the request/response workload's measurement
// path: 12 clients, 4 servers, moderate hotspot skew on the paper's 4x4
// torus — the per-point cost of an S-2 sweep.
func BenchmarkServiceWorkload(b *testing.B) {
	topo, err := noc.NewTopology(4, 4)
	if err != nil {
		b.Fatal(err)
	}
	sc := noc.ServiceMeasureConfig{
		Router:      noc.RouterDeflection,
		Servers:     4,
		ArrivalRate: 0.03,
		ThinkTime:   8,
		HotspotSkew: 0.5,
		Warmup:      200,
		Measure:     4000,
		Seed:        1,
	}
	for i := 0; i < b.N; i++ {
		m, err := noc.MeasureServiceCtx(context.Background(), topo, sc)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(m.Completed), "requests-completed")
			b.ReportMetric(m.P99Server, "p99-server")
		}
	}
}

func reportSpread(b *testing.B, pts []dse.Point) {
	var min, max int64
	for i, p := range pts {
		if i == 0 || p.CyclesPerIter < min {
			min = p.CyclesPerIter
		}
		if p.CyclesPerIter > max {
			max = p.CyclesPerIter
		}
	}
	b.ReportMetric(float64(min), "best-cycles/iter")
	b.ReportMetric(float64(max), "worst-cycles/iter")
}
