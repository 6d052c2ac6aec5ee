package scenario

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/noc"
	"repro/internal/resultcache"
	"repro/internal/trace"
)

// tracePoints expands topologies x routers over one decoded trace, each
// point one replay. Replayed rows carry the noc-synthetic schema with the
// recorded provenance as their axis labels (pattern, rate, seed, bursty
// come from the trace header; topology and router are the replay axes) —
// a same-fabric replay therefore renders byte-identical tables/CSV/JSON
// and an equal Merkle root to its source run, which the record/replay
// differential battery asserts.
func tracePoints(s *Scenario) ([]point, error) {
	c := s.Trace
	t, err := c.load()
	if err != nil {
		return nil, fmt.Errorf(`scenario: "trace.file": %w`, err)
	}
	topos, err := c.fabrics(t)
	if err != nil {
		return nil, err
	}
	routers, err := c.routers(t)
	if err != nil {
		return nil, err
	}
	// Decode memoized the hash from the file bytes, so this is a read.
	hash := t.Hash()
	// The events convert once per run, when the first point that misses
	// the cache needs them: expansion (and so NumPoints) stays cheap.
	events := sync.OnceValue(func() []noc.ReplayEvent {
		out := make([]noc.ReplayEvent, len(t.Events))
		for i, ev := range t.Events {
			out[i] = noc.ReplayEvent{
				Cycle: ev.Cycle, Src: ev.Src, Dst: ev.Dst, Meta: ev.Meta,
				Req: ev.Kind == trace.EventMessage,
			}
		}
		return out
	})
	var ps []point
	for _, topo := range topos {
		for _, router := range routers {
			ps = append(ps, func(ctx context.Context, rc *resultcache.Cache) (Result, error) {
				return runTracePoint(ctx, rc, t, hash, events, topo, router)
			})
		}
	}
	return ps, nil
}

// runTracePoint replays the trace through one (topology, router) point.
// The cache key embeds the trace's content hash — the trailing SHA-256 of
// the file bytes — so a cached replay can never outlive its trace: any
// byte change (including header provenance) misses, and two identical
// files share entries.
func runTracePoint(ctx context.Context, rc *resultcache.Cache, t *trace.Trace, hash string, events func() []noc.ReplayEvent, topo noc.Topology, router noc.RouterKind) (Result, error) {
	key := resultcache.NewKey("scenario/trace").
		Str("trace_sha256", hash).
		Str("topology", topo.Kind().String()).
		Str("router", router.String()).
		Sum()
	m, err := resultcache.Fetch(rc, key, func() (noc.Measurement, error) {
		return noc.MeasureReplayCtx(ctx, topo, noc.ReplayConfig{
			Router: router, Events: events(),
			Warmup: t.Header.Warmup, Measure: t.Header.Measure,
		})
	})
	// Replay rows carry the noc-synthetic schema: the recorded provenance
	// fills the pattern/rate/seed axes, so a same-fabric replay row is
	// byte-identical to its source row.
	h := t.Header
	return nocRow(m, topo, router, h.Pattern, h.Rate, h.Seed, h.Bursty), err
}

// RecordCtx runs a single-point scenario with trace capture and returns
// the recorded trace alongside the run's results. NoC-synthetic points
// record flit-level injections through noc.TrafficConfig.Record; kernel
// points record eMPI message sends through core.Config.Record, which
// core.Build hands to every TIE port. The recorder belongs to this run
// alone: concurrent runs in the same process record nothing into it.
// Recording bypasses the result cache (runPoints: a cache hit skips the
// simulation and would record nothing); the returned results are byte-identical to a
// cached run's, which the record/replay differential tests assert.
func RecordCtx(ctx context.Context, s *Scenario) (*trace.Trace, []Result, error) {
	kinds, err := s.workloadKinds()
	if err != nil {
		return nil, nil, fmt.Errorf("scenario: %w", err)
	}
	if len(kinds) != 1 {
		return nil, nil, fmt.Errorf("scenario: recording needs a single workload, got %d", len(kinds))
	}
	switch k := kinds[0]; {
	case k == WorkloadNoC:
		return recordNoC(ctx, s)
	case k.IsKernel():
		return recordKernel(ctx, s)
	}
	return nil, nil, fmt.Errorf("scenario: the %v workload cannot be recorded (record a %v or kernel run)", kinds[0], WorkloadNoC)
}

// recordNoC captures one noc-synthetic point into a trace whose header
// carries the point's full provenance, read off the resolved
// noc.MeasureConfig the point runs, so replaying it reproduces the run
// exactly.
func recordNoC(ctx context.Context, s *Scenario) (*trace.Trace, []Result, error) {
	c := s.NoC
	if len(c.MeasureWindows) > 0 {
		return nil, nil, fmt.Errorf("scenario: recording does not support measure_windows (a trace has one fixed horizon); use measure_cycles")
	}
	if n := s.NumPoints(); n != 1 {
		return nil, nil, fmt.Errorf("scenario: recording needs a single-point scenario (one topology, router, pattern, rate and seed), got %d points", n)
	}
	jobs, err := c.jobs(s.seedList())
	if err != nil {
		return nil, nil, err
	}
	j := jobs[0]
	mc, err := nocMeasureConfig(c, j)
	if err != nil {
		return nil, nil, err
	}
	t := trace.New(trace.Header{
		Width: c.Width, Height: c.Height,
		Topology: j.topo.Kind().String(),
		Router:   mc.Router.String(),
		Pattern:  mc.Traffic.Pattern.String(),
		Rate:     mc.Traffic.Rate,
		Seed:     mc.Seed,
		Bursty:   mc.Traffic.Burst != nil,
		QueueCap: mc.Traffic.QueueCap,
		Warmup:   mc.Warmup,
		Measure:  mc.Measure,
	})
	results, err := recordRun(ctx, s, t)
	if err != nil {
		return nil, nil, err
	}
	return t, results, nil
}

// recordKernel captures one kernel point's eMPI message sends. Kernel
// rigs run on the architecture's fixed 4x4 folded torus (core.Config
// defaults), and the horizon is only known once the run finishes, so the
// header's measure window is stamped afterwards. Message events replay as
// single request-class flits carrying the packet's word count — a
// deterministic communication skeleton, not a flit-exact reproduction
// like noc recordings.
func recordKernel(ctx context.Context, s *Scenario) (*trace.Trace, []Result, error) {
	if n := s.NumPoints(); n != 1 {
		return nil, nil, fmt.Errorf("scenario: recording needs a single-point scenario (one variant, cores and cache size), got %d points", n)
	}
	t := trace.New(trace.Header{
		Width: 4, Height: 4,
		Topology: noc.TopoTorus.String(),
		Router:   noc.RouterDeflection.String(),
		Pattern:  s.Workload,
		Measure:  1,
	})
	results, err := recordRun(ctx, s, t)
	if err != nil {
		return nil, nil, err
	}
	if n := len(t.Events); n > 0 {
		t.Header.Measure = t.Events[n-1].Cycle + 1
	}
	return t, results, nil
}

// recordRun runs a copy of s with t as its recorder.
func recordRun(ctx context.Context, s *Scenario, t *trace.Trace) ([]Result, error) {
	run := *s
	run.Record = t
	return RunCtx(ctx, &run)
}
