package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/jacobi"
	"repro/internal/matmul"
	"repro/internal/noc"
	"repro/internal/par"
	"repro/internal/pe"
	"repro/internal/resultcache"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/syncbench"
	"repro/internal/trace"
)

// The per-layer probes: each times calls into one layer's exported entry
// points, from outside, on inputs fixed in this file (seed 1 whatever
// --seed is), so that a number means the same in every traced run.
// README.md says which end-to-end metric on which workload each should
// move.

type prober struct {
	ctx context.Context
	sz  sizes
	tr  *tracer
	out *metricSet
	tmp string // scratch directory for the disk cache, inside the checkout
	exe string // this binary, re-executed as a shard worker
	err error  // the first failure; a probe that fails fails the run
}

// keep remembers the first error. Timed closures report through it so
// that the timing loops stay free of error plumbing.
func (p *prober) keep(err error) {
	if err != nil && p.err == nil {
		p.err = err
	}
}

// tinyJob is one serve-mixed job, the smallest sweep the probes need.
func (p *prober) tinyJob() []byte { return generate(1, p.sz).job("tiny", 1) }

func (p *prober) all() error {
	for _, probe := range []func(){
		p.engine, p.routers, p.points, p.handoff, p.golden, p.scenarioAndShard,
		p.resultCache, p.daemon, p.traceCodec,
	} {
		if probe(); p.err != nil {
			return p.err
		}
	}
	return nil
}

// ---- sim ----

type idler struct{}

func (idler) Name() string { return "idler" }
func (idler) Step(int64)   {}

type setter struct{ reg *sim.Reg[int64] }

func (s setter) Name() string   { return "setter" }
func (s setter) Step(now int64) { s.reg.Set(now) }

// sleeper has something to do every period cycles and says so.
type sleeper struct{ period int64 }

func (sleeper) Name() string { return "sleeper" }
func (sleeper) Step(int64)   {}
func (s sleeper) NextEvent(now int64) int64 {
	if r := now % s.period; r != 0 {
		return now + s.period - r
	}
	return now
}

const (
	engineComponents = 32
	sleepPeriod      = 1000
)

func (p *prober) engine() {
	empty := sim.NewEngine()
	empty.SetFastForward(false)
	writing := sim.NewEngine()
	writing.SetFastForward(false)
	jumping := sim.NewEngine()
	for i := 0; i < engineComponents; i++ {
		empty.Register(sim.PhaseNode, idler{})
		writing.Register(sim.PhaseNode, setter{sim.NewReg[int64](writing, fmt.Sprintf("r%d", i))})
		jumping.Register(sim.PhaseNode, sleeper{period: sleepPeriod})
	}
	tick := repeat(p.sz.probeRepeats, func() float64 { return perOp(p.sz.engineTicks, empty.Tick) })
	p.out.put("sim.tick_empty_ns", tick)
	p.out.put("sim.commit_ns_per_reg", repeat(p.sz.probeRepeats, func() float64 {
		return max(perOp(p.sz.engineTicks, writing.Tick)-tick.Value, 0) / engineComponents
	}))
	// One jump per period: the cost of asking 32 components for their
	// next event, moving the clock, and ticking the one busy cycle.
	p.out.put("sim.ffwd_jump_ns", repeat(p.sz.probeRepeats, func() float64 {
		before := jumping.CyclesSkipped()
		t0 := time.Now()
		jumping.Run(p.sz.ffwdCycles)
		if jumping.CyclesSkipped() == before {
			p.keep(errors.New("sim.ffwd_jump_ns: the engine did not fast-forward"))
		}
		return float64(time.Since(t0).Nanoseconds()) / (float64(p.sz.ffwdCycles) / sleepPeriod)
	}))

	warm, err := tickRig(noc.RouterDeflection, 0.05)
	if err != nil {
		p.keep(err)
		return
	}
	warm.Run(1000)
	p.out.put("sim.snapshot_restore_ns", repeat(p.sz.probeRepeats, func() float64 {
		return perOp(p.sz.mediumOps, func() {
			s, err := warm.Snapshot()
			if err == nil {
				err = warm.Restore(s)
			}
			p.keep(err)
		})
	}))
}

// ---- noc ----

// tickRig is the BenchmarkTick rig of internal/noc: the paper's 4x4
// folded torus with one uniform traffic source per node, fast-forward
// off, warmed to steady occupancy.
func tickRig(kind noc.RouterKind, rate float64) (*sim.Engine, error) {
	topo, err := noc.NewTopology(4, 4)
	if err != nil {
		return nil, err
	}
	e := sim.NewEngine()
	e.SetFastForward(false)
	n := noc.NewRouterNetwork(e, topo, kind)
	for id := 0; id < topo.NumNodes(); id++ {
		tn := noc.NewTrafficNode(id, topo, noc.TrafficConfig{Pattern: noc.Uniform, Rate: rate}, 1)
		n.Attach(id, tn)
		e.Register(sim.PhaseNode, tn)
	}
	e.Run(100)
	return e, nil
}

func (p *prober) routers() {
	for _, name := range routers {
		kind, err := noc.ParseRouter(name)
		if err != nil {
			p.keep(err)
			return
		}
		for _, load := range loads {
			e, err := tickRig(kind, load)
			if err != nil {
				p.keep(err)
				return
			}
			p.out.put(fmt.Sprintf("noc.tick_ns.%s.load-%.2f", name, load),
				repeat(p.sz.probeRepeats, func() float64 { return perOp(p.sz.routerTicks, e.Tick) }))
			if load == loads[len(loads)-1] {
				// Nothing but ticks between the two readings, so the
				// count is the router's own.
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				for i := 0; i < p.sz.routerTicks; i++ {
					e.Tick()
				}
				runtime.ReadMemStats(&m1)
				p.out.put("noc.tick_allocs."+name, one(float64(m1.Mallocs-m0.Mallocs)))
			}
		}
	}
	for _, name := range fabrics {
		kind, err := noc.ParseTopology(name)
		if err != nil {
			p.keep(err)
			return
		}
		topo, err := noc.NewTopologyOfKind(kind, 4, 4)
		if err != nil {
			p.keep(err)
			return
		}
		p.out.put("noc.rig_build_ns."+name, repeat(p.sz.mediumOps, func() float64 {
			t0 := time.Now()
			_, err := noc.MeasureCtx(p.ctx, topo, noc.MeasureConfig{
				Traffic: noc.TrafficConfig{Pattern: noc.Uniform, Rate: 0.4}, Measure: 1, Seed: 1,
			})
			p.keep(err)
			return float64(time.Since(t0).Nanoseconds())
		}))
	}
}

// points times one whole measurement point of each NoC rig: the
// synthetic-traffic rig the way noc-saturated and noc-idle use it, and
// the request/response rig. (The replay rig is timed with the trace
// codec, which makes its input.)
func (p *prober) points() {
	topo, err := noc.NewTopology(4, 4)
	if err != nil {
		p.keep(err)
		return
	}
	measure := func(group string, router noc.RouterKind, rate float64, window int64, repeats int) (noc.Measurement, summary) {
		mc := noc.MeasureConfig{
			Router:  router,
			Traffic: noc.TrafficConfig{Pattern: noc.Uniform, Rate: rate},
			Warmup:  p.sz.nocWarmup, Measure: window, Seed: 1,
		}
		// What a point costs before its first cycle, then the point; the
		// window's own time is the second span minus the first.
		build := mc
		build.Warmup, build.Measure = 0, 1
		id := p.tr.start(noSpan, group, "noc.rig_build")
		_, err := noc.MeasureCtx(p.ctx, topo, build)
		p.tr.end(id)
		p.keep(err)
		var m noc.Measurement
		s := repeat(repeats, func() float64 {
			id := p.tr.start(noSpan, group, "noc.MeasureCtx")
			defer p.tr.end(id)
			t0 := time.Now()
			var err error
			m, err = noc.MeasureCtx(p.ctx, topo, mc)
			p.keep(err)
			return float64(time.Since(t0).Nanoseconds())
		})
		return m, s
	}
	mcycles := func(window int64, s summary) summary {
		return one(float64(p.sz.nocWarmup+window) / s.Value * 1e3)
	}

	sat, s := measure("ref/noc-saturated", noc.RouterDeflection, satRates[0], p.sz.satMeasure, p.sz.probeRepeats)
	p.out.put("noc.point_ns.saturated", s)
	p.out.put("noc.sim_mcycles_per_s.saturated", mcycles(p.sz.satMeasure, s))
	p.out.put("noc.delivered", one(float64(sat.Delivered)))
	p.out.put("noc.deflections", one(float64(sat.Deflections)))
	// Deflection routers hold nothing; buffer depth is the buffered
	// baseline's figure, on the same traffic.
	xy, _ := measure("ref/noc-saturated-xy", noc.RouterXY, satRates[0], p.sz.satMeasure, 1)
	p.out.put("noc.peak_buffer", one(float64(xy.PeakBuffer)))

	_, s = measure("ref/noc-idle", noc.RouterDeflection, p.sz.idleRates[0], p.sz.idleCycles, p.sz.probeRepeats)
	p.out.put("noc.point_ns.idle", s)
	p.out.put("noc.sim_mcycles_per_s.idle", mcycles(p.sz.idleCycles, s))

	// The S-2 point of the root BenchmarkServiceWorkload.
	p.out.put("noc.service_point_ns", repeat(p.sz.probeRepeats, func() float64 {
		t0 := time.Now()
		_, err := noc.MeasureServiceCtx(p.ctx, topo, noc.ServiceMeasureConfig{
			Router: noc.RouterDeflection, Servers: 4, ArrivalRate: 0.03, ThinkTime: 8, HotspotSkew: 0.5,
			Warmup: p.sz.jobWarmup, Measure: p.sz.jobMeasure, Seed: 1,
		})
		p.keep(err)
		return float64(time.Since(t0).Nanoseconds())
	}))
}

// ---- pe, core, kernels ----

// handoffRun builds a one-core system, runs ops operations on it and
// returns the host time per operation: what the pe.Env rendezvous (two
// channel crossings per simulated operation) costs when nothing else
// happens.
func (p *prober) handoffRun(op func(env *pe.Env, sys *core.System)) float64 {
	sys, err := core.Build(core.DefaultConfig(1, 8, cache.WriteBack))
	if err != nil {
		p.keep(err)
		return 0
	}
	sys.Launch([]pe.Program{func(env *pe.Env) {
		for i := 0; i < p.sz.handoffOps; i++ {
			op(env, sys)
		}
	}})
	t0 := time.Now()
	p.keep(sys.RunCtx(p.ctx, jacobi.DefaultBudget))
	return float64(time.Since(t0).Nanoseconds()) / float64(p.sz.handoffOps)
}

func (p *prober) handoff() {
	compute := func(env *pe.Env, _ *core.System) { env.Compute(1) }
	// One OS thread keeps both sides of the rendezvous on one scheduler
	// queue; two let them land on different threads, which is what a
	// parallelism-2 sweep on two cores gets.
	procs := runtime.GOMAXPROCS(1)
	p.out.put("pe.handoff_ns_per_op.procs1", repeat(p.sz.probeRepeats, func() float64 { return p.handoffRun(compute) }))
	runtime.GOMAXPROCS(2)
	p.out.put("pe.handoff_ns_per_op.procs2", repeat(p.sz.probeRepeats, func() float64 { return p.handoffRun(compute) }))
	runtime.GOMAXPROCS(procs)

	// The first load misses; every later one hits the same line.
	p.out.put("pe.memop_ns", repeat(p.sz.probeRepeats, func() float64 {
		return p.handoffRun(func(env *pe.Env, sys *core.System) { env.LoadWord(sys.Map.PrivateAddr(0, 0)) })
	}))
}

// golden is the point internal/jacobi's determinism test pins: 6 cores,
// 8 kB write-back L1, N=30, one warm-up and two measured iterations.
func (p *prober) golden() {
	cfg := core.DefaultConfig(6, 8, cache.WriteBack)
	spec := jacobi.Spec{N: min(30, p.sz.kernelN), Warmup: 1, Measured: 2}

	var sys *core.System
	var res jacobi.Result
	point := repeat(p.sz.probeRepeats, func() float64 {
		t0 := time.Now()
		var err error
		res, err = jacobi.RunCtx(p.ctx, cfg, spec, jacobi.HybridFull,
			jacobi.WithSystemHook(func(s *core.System) error { sys = s; return nil }))
		p.keep(err)
		return float64(time.Since(t0).Nanoseconds())
	})
	if p.err != nil {
		return
	}
	p.out.put("jacobi.point_ns", point)
	p.out.put("jacobi.sim_mcycles_per_s", one(float64(res.TotalCycles)/point.Value*1e3))
	p.out.put("jacobi.golden_cycles", one(float64(res.TotalCycles)))
	var ops, memOps, stalls, misses int64
	for _, proc := range sys.Procs {
		ops += proc.Stats.Ops.Value()
		memOps += proc.Stats.MemOps.Value()
		stalls += proc.Stats.StallCycles.Value()
		misses += proc.Cache.Stats.Misses.Value()
	}
	p.out.put("pe.ops", one(float64(ops)))
	p.out.put("pe.mem_ops", one(float64(memOps)))
	p.out.put("pe.stall_cycles", one(float64(stalls)))
	p.out.put("cache.misses", one(float64(misses)))
	p.out.put("mpmmu.busy_cycles", one(float64(res.MPMMUBusy)))
	p.out.put("noc.kernel_flits", one(float64(res.NoCFlits)))

	p.out.put("core.build_ns", repeat(max(p.sz.mediumOps/10, 1), func() float64 {
		t0 := time.Now()
		_, err := core.Build(cfg)
		p.keep(err)
		return float64(time.Since(t0).Nanoseconds())
	}))

	p.goldenBySteps(cfg, spec, res.TotalCycles)
	if p.err != nil {
		return
	}

	p.out.put("matmul.point_ns", repeat(p.sz.probeRepeats, func() float64 {
		t0 := time.Now()
		_, err := matmul.RunCtx(p.ctx, cfg, matmul.Spec{N: spec.N}, jacobi.HybridFull)
		p.keep(err)
		return float64(time.Since(t0).Nanoseconds())
	}))
	p.out.put("syncbench.point_ns", repeat(p.sz.probeRepeats, func() float64 {
		t0 := time.Now()
		_, err := syncbench.MeasureWithCtx(p.ctx, syncbench.MessageBarrier, cfg, p.sz.syncRounds)
		p.keep(err)
		return float64(time.Since(t0).Nanoseconds())
	}))
}

// goldenBySteps runs the golden point once more by the public steps
// jacobi.RunCtx is made of, a span around each.
func (p *prober) goldenBySteps(cfg core.Config, spec jacobi.Spec, wantCycles int64) {
	const group = "ref/kernel-sweep"
	top := p.tr.start(noSpan, group, "jacobi.RunCtx")
	defer p.tr.end(top)
	step := func(name string, fn func() error) time.Duration {
		id := p.tr.start(top, group, name)
		defer p.tr.end(id)
		t0 := time.Now()
		p.keep(fn())
		return time.Since(t0)
	}
	var sys *core.System
	var blocks []jacobi.Block
	step("core.Build", func() (err error) {
		sys, err = core.Build(cfg)
		return err
	})
	if p.err != nil {
		return
	}
	step("jacobi.Preload+Programs+Launch", func() error {
		blocks = jacobi.Partition(spec.N, cfg.NumCompute)
		jacobi.Preload(sys.DDR, sys.Map, spec.N, blocks)
		progs, _ := jacobi.Programs(spec, jacobi.HybridFull, blocks, sys.RankNodes(),
			func(rank int) jacobi.Layout { return jacobi.NewLayout(sys.Map, spec.N, blocks[rank]) })
		sys.Launch(progs)
		return nil
	})
	run := step("core.System.RunCtx", func() error { return sys.RunCtx(p.ctx, jacobi.DefaultBudget) })
	if p.err != nil {
		return
	}
	verify := step("jacobi.Verify", func() error { return jacobi.Verify(sys, spec, blocks) })
	if sys.Cycles() != wantCycles {
		p.keep(fmt.Errorf("golden point by steps ran %d cycles, jacobi.RunCtx %d", sys.Cycles(), wantCycles))
	}
	p.out.put("core.run_ns_per_ticked_cycle", one(float64(run.Nanoseconds())/float64(sys.Cycles()-sys.Engine.CyclesSkipped())))
	p.out.put("jacobi.verify_ns", one(float64(verify.Nanoseconds())))
}

// ---- scenario, dse, par, shard ----

// scenarioAndShard works on the fig8-quick sweep (examples/scenarios/
// fig8-quick.json, written out here so the benchmark reads nothing
// outside its own directory): cold for continuity with the old ledger's
// fig8-quick/cache-off, then on a warm cache, where what is left is the
// scenario layer's and the shard transport's own cost.
func (p *prober) scenarioAndShard() {
	fig8 := []byte(fmt.Sprintf(
		`{"name":"fig8-quick","workload":"jacobi","kernel":{"n":%d,"variant":"hybrid-full","cores":%s,"cache_kb":%s,`+
			`"policies":["write-back"],"warmup":1,"measured":1},"parallelism":2}`,
		p.sz.kernelN, jsonList(p.sz.fig8Cores), jsonList(p.sz.fig8CachesKB)))

	p.out.put("scenario.parse_ns", repeat(p.sz.probeRepeats, func() float64 {
		return perOp(p.sz.mediumOps, func() { _, err := scenario.Parse(fig8); p.keep(err) })
	}))
	s, err := scenario.Parse(fig8)
	if err != nil {
		p.keep(err)
		return
	}
	t0 := time.Now()
	rows, err := scenario.RunCtx(p.ctx, s)
	if err != nil {
		p.keep(err)
		return
	}
	p.out.put("dse.fig8quick_ns", one(float64(time.Since(t0).Nanoseconds())))
	root := scenario.MerkleRoot(rows)

	for _, format := range []string{scenario.FormatCSV, scenario.FormatJSON, scenario.FormatTable} {
		p.out.put("scenario.render_ns."+format, repeat(p.sz.probeRepeats, func() float64 {
			return perOp(p.sz.mediumOps, func() { _, err := scenario.Render(rows, format); p.keep(err) })
		}))
	}
	p.out.put("scenario.merkle_ns", repeat(p.sz.probeRepeats, func() float64 {
		return perOp(p.sz.mediumOps, func() { scenario.MerkleRoot(rows) })
	}))

	// Fill a cache with the sweep, then run on hits only.
	s.Cache = resultcache.New(resultcache.NewMemoryStore(0))
	if _, err := scenario.RunCtx(p.ctx, s); err != nil {
		p.keep(err)
		return
	}
	sameRoot := func(what string, got []scenario.Result, err error) {
		p.keep(err)
		if err == nil && scenario.MerkleRoot(got) != root {
			p.keep(fmt.Errorf("fig8-quick %s differs from the cold single-process run", what))
		}
	}
	warm := repeat(max(p.sz.mediumOps/10, 1), func() float64 {
		t0 := time.Now()
		got, err := scenario.RunCtx(p.ctx, s)
		sameRoot("from a warm cache", got, err)
		return float64(time.Since(t0).Nanoseconds())
	})
	n := float64(len(rows))
	p.out.put("scenario.overhead_ns_per_point", summary{Value: warm.Value / n, Q1: warm.Q1 / n, Q3: warm.Q3 / n, N: warm.N})

	p.out.put("par.dispatch_ns_per_job", repeat(p.sz.probeRepeats, func() float64 {
		t0 := time.Now()
		p.keep(par.ForEachCtx(p.ctx, p.sz.parJobs, 2, func(int) error { return nil }))
		return float64(time.Since(t0).Nanoseconds()) / float64(p.sz.parJobs)
	}))

	// One result frame the size of a whole fig8-quick shard.
	frame := shard.Response{ID: 1, Type: shard.TypeResult, Root: root}
	for i, r := range rows {
		frame.Rows = append(frame.Rows, scenario.Row{Index: i, Result: r})
	}
	p.out.put("shard.frame_ns", repeat(p.sz.probeRepeats, func() float64 {
		return perOp(p.sz.mediumOps, func() {
			var buf bytes.Buffer
			var back shard.Response
			p.keep(shard.WriteFrame(&buf, &frame))
			p.keep(shard.ReadFrame(&buf, &back))
		})
	}))

	// Four in-process pipe workers on the same warm cache: no compute is
	// left, so what exceeds the single-process warm run is the transport.
	pipes := &shard.Coordinator{Shards: 4, Workers: 4,
		NewWorker: func(ctx context.Context) (shard.Worker, error) { return shard.StartPipe(ctx, s.Cache), nil }}
	piped := repeat(max(p.sz.mediumOps/30, 1), func() float64 {
		t0 := time.Now()
		got, _, err := pipes.Run(p.ctx, s)
		sameRoot("over pipe workers", got, err)
		return ms(time.Since(t0))
	})
	p.out.put("shard.pipe_overhead_ms", one(max(piped.Value-warm.Value/1e6, 0)))

	// One worker process, this binary re-executed, on a sweep so small
	// that spawning it is nearly all there is to time.
	tiny, err := scenario.Parse(p.tinyJob())
	if err != nil {
		p.keep(err)
		return
	}
	t0 = time.Now()
	_, err = scenario.RunCtx(p.ctx, tiny)
	p.keep(err)
	inProcess := ms(time.Since(t0))
	proc := &shard.Coordinator{Shards: 1, Workers: 1,
		NewWorker: shard.ProcFactory(shard.ProcSpec{Command: []string{p.exe, shardWorkerFlag}})}
	spawned := repeat(p.sz.probeRepeats, func() float64 {
		t0 := time.Now()
		_, _, err := proc.Run(p.ctx, tiny)
		p.keep(err)
		return ms(time.Since(t0))
	})
	p.out.put("shard.proc_spawn_ms", one(max(spawned.Value-inProcess, 0)))
}

// ---- resultcache ----

func (p *prober) resultCache() {
	p.out.put("resultcache.key_ns", repeat(p.sz.probeRepeats, func() float64 {
		return perOp(p.sz.cheapOps, func() {
			resultcache.NewKey("dse/jacobi").
				Int("n", 30).Int("cores", 8).Int("cache_kb", 16).
				Str("policy", "WB").Str("variant", "hybrid-full").
				Int("warmup", 1).Int("measured", 1).Sum()
		})
	}))

	dir, err := os.MkdirTemp(p.tmp, "diskcache-")
	if err != nil {
		p.keep(err)
		return
	}
	defer os.RemoveAll(dir)
	disk, err := resultcache.NewDiskStore(dir)
	if err != nil {
		p.keep(err)
		return
	}
	payload := []byte(`{"cycles_per_iter":94177,"miss_rate":0.01}`)
	compute := func() ([]byte, error) { return payload, nil }
	for _, backend := range []struct {
		name  string
		store resultcache.Store
		ops   int
	}{{"mem", resultcache.NewMemoryStore(0), p.sz.cheapOps}, {"disk", disk, p.sz.mediumOps}} {
		c := resultcache.New(backend.store)
		keys := make([]resultcache.Key, backend.ops)
		for i := range keys {
			keys[i] = resultcache.NewKey("bench").Int("i", int64(i)).Sum()
		}
		lookup := func(key resultcache.Key, wantHit bool) {
			if _, hit, err := c.GetOrCompute(key, compute); err != nil || hit != wantHit {
				p.keep(fmt.Errorf("resultcache %s: hit=%v, want %v (err %v)", backend.name, hit, wantHit, err))
			}
		}
		i := 0
		p.out.put("resultcache.miss_put_ns."+backend.name, one(perOp(backend.ops, func() { lookup(keys[i], false); i++ })))
		p.out.put("resultcache.hit_ns."+backend.name, repeat(p.sz.probeRepeats, func() float64 {
			return perOp(backend.ops, func() { lookup(keys[0], true) })
		}))
	}

	leaves := make([][]byte, 168)
	for i := range leaves {
		leaves[i] = []byte(fmt.Sprintf(`{"cores":%d,"cycles":%d}`, i%14+2, 90000+i))
	}
	p.out.put("resultcache.merkle_build_ns", repeat(p.sz.probeRepeats, func() float64 {
		return perOp(p.sz.mediumOps, func() { resultcache.NewTree(leaves) })
	}))

	// 256 values of 1 KiB into a 64 KiB store: all but the last 64 go.
	small := resultcache.NewMemoryStore(64 << 10)
	value := make([]byte, 1<<10)
	for i := 0; i < 256; i++ {
		small.Put(resultcache.NewKey("bench").Int("i", int64(i)).Sum(), value)
	}
	p.out.put("resultcache.evictions", one(float64(small.Evictions())))
}

// ---- serve ----

// daemon times the job machinery with the simulation taken out: a runner
// that returns at once, so what is left is queue, job table, HTTP and
// JSON. (The spans and latencies of real jobs come from the serve-mixed
// round of the traced run, not from here.)
func (p *prober) daemon() {
	tinyBody := p.tinyJob()
	rows, _, err := direct(p.ctx, tinyBody)
	if err != nil {
		p.keep(err)
		return
	}
	tiny, err := scenario.Parse(tinyBody)
	if err != nil {
		p.keep(err)
		return
	}
	instant := func(context.Context, *scenario.Scenario) ([]scenario.Result, error) { return rows, nil }
	srv := serve.New(serve.Config{Workers: 2, QueueDepth: 16, Runner: instant})
	defer srv.Shutdown(p.ctx)

	jobs := p.sz.mediumOps * 10
	var submit time.Duration
	var last string
	p.out.put("serve.job_overhead_us", one(perOp(jobs, func() {
		t0 := time.Now()
		st, err := srv.Submit(tiny)
		submit += time.Since(t0)
		for err == nil && !st.State.Terminal() {
			runtime.Gosched()
			st, err = srv.Status(st.ID)
		}
		p.keep(err)
		last = st.ID
	})/1e3))
	if p.err != nil {
		return
	}
	p.out.put("serve.submit_ns", one(float64(submit.Nanoseconds())/float64(jobs)))
	p.out.put("serve.status_ns", repeat(p.sz.probeRepeats, func() float64 {
		return perOp(p.sz.cheapOps, func() { _, err := srv.Status(last); p.keep(err) })
	}))
	p.out.put("serve.result_ns", repeat(p.sz.probeRepeats, func() float64 {
		return perOp(jobs, func() { _, _, err := srv.Result(last, scenario.FormatCSV); p.keep(err) })
	}))

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	call := func(method, path string, body []byte, want int) {
		code, _, err := httpCall(p.ctx, ts, method, path, body)
		p.keep(err)
		if err == nil && code != want {
			p.keep(fmt.Errorf("%s %s: status %d, want %d", method, path, code, want))
		}
	}
	p.out.put("serve.http_submit_us", repeat(p.sz.probeRepeats, func() float64 {
		return perOp(p.sz.mediumOps, func() { call(http.MethodPost, "/v1/jobs", tinyBody, http.StatusAccepted) }) / 1e3
	}))
	p.out.put("serve.http_status_us", repeat(p.sz.probeRepeats, func() float64 {
		return perOp(p.sz.mediumOps, func() { call(http.MethodGet, "/v1/jobs/"+last, nil, http.StatusOK) }) / 1e3
	}))

	// Backpressure: both workers held, 16 queue slots, 64 submissions in
	// all. The two running jobs are confirmed running before the burst,
	// so the count does not depend on how fast the workers dequeue.
	release := make(chan struct{})
	held := serve.New(serve.Config{Workers: 2, QueueDepth: 16,
		Runner: func(ctx context.Context, _ *scenario.Scenario) ([]scenario.Result, error) {
			select {
			case <-release:
			case <-ctx.Done():
			}
			return rows, nil
		}})
	defer held.Shutdown(p.ctx)
	defer close(release)
	rejected := 0
	for i := 0; i < 64; i++ {
		st, err := held.Submit(tiny)
		for i < 2 && err == nil && st.State != serve.StateRunning {
			runtime.Gosched()
			st, err = held.Status(st.ID)
		}
		if errors.Is(err, serve.ErrQueueFull) {
			rejected++
		} else {
			p.keep(err)
		}
	}
	p.out.put("serve.burst_rejected", one(float64(rejected)))
}

// ---- trace ----

// traceCodec captures one run the way the root BenchmarkTraceReplay does,
// times the codec per event, and replays the capture through the replay
// rig.
func (p *prober) traceCodec() {
	topo, err := noc.NewTopology(4, 4)
	if err != nil {
		p.keep(err)
		return
	}
	warmup, measure := p.sz.jobWarmup, p.sz.jobMeasure
	rec := trace.New(trace.Header{
		Width: 4, Height: 4, Topology: "torus", Router: "deflection",
		Pattern: "uniform", Rate: 0.15, Seed: 1, Warmup: warmup, Measure: measure,
	})
	src, err := noc.MeasureCtx(p.ctx, topo, noc.MeasureConfig{
		Router:  noc.RouterDeflection,
		Traffic: noc.TrafficConfig{Pattern: noc.Uniform, Rate: 0.15, Record: rec},
		Warmup:  warmup, Measure: measure, Seed: 1,
	})
	if err != nil {
		p.keep(err)
		return
	}
	events := float64(len(rec.Events))
	codecOps := max(p.sz.mediumOps/10, 1)
	var data []byte
	p.out.put("trace.encode_ns_per_event", repeat(p.sz.probeRepeats, func() float64 {
		return perOp(codecOps, func() { data = rec.Encode() }) / events
	}))
	var loaded *trace.Trace
	p.out.put("trace.decode_ns_per_event", repeat(p.sz.probeRepeats, func() float64 {
		return perOp(codecOps, func() {
			var err error
			loaded, err = trace.Decode(data)
			p.keep(err)
		}) / events
	}))
	if p.err != nil {
		return
	}
	replay := make([]noc.ReplayEvent, len(loaded.Events))
	for i, ev := range loaded.Events {
		replay[i] = noc.ReplayEvent{Cycle: ev.Cycle, Src: ev.Src, Dst: ev.Dst, Meta: ev.Meta, Req: ev.Kind == trace.EventMessage}
	}
	p.out.put("noc.replay_point_ns", repeat(p.sz.probeRepeats, func() float64 {
		t0 := time.Now()
		m, err := noc.MeasureReplayCtx(p.ctx, topo, noc.ReplayConfig{
			Router: noc.RouterDeflection, Events: replay, Warmup: warmup, Measure: measure,
		})
		p.keep(err)
		if err == nil && m.Delivered != src.Delivered {
			p.keep(fmt.Errorf("replay delivered %d flits, the recorded run %d", m.Delivered, src.Delivered))
		}
		return float64(time.Since(t0).Nanoseconds())
	}))
}
