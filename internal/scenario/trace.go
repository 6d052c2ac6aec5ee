package scenario

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/noc"
	"repro/internal/par"
	"repro/internal/resultcache"
	"repro/internal/tie"
	"repro/internal/trace"
)

// traceJob is one point of the trace-replay canonical order.
type traceJob struct {
	topo   noc.Topology
	router noc.RouterKind
}

// Run expands topologies x routers over one decoded trace and replays
// each point on the sweep pool. Replayed rows carry the noc-synthetic
// schema with the recorded provenance as their axis labels (pattern,
// rate, seed, bursty come from the trace header; topology and router are
// the replay axes) — a same-fabric replay therefore renders
// byte-identical tables/CSV/JSON and an equal Merkle root to its source
// run, which the record/replay differential battery asserts.
func (traceWorkload) Run(ctx context.Context, s *Scenario, points []int) ([]Result, error) {
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
	events := make([]noc.ReplayEvent, len(t.Events))
	for i, ev := range t.Events {
		events[i] = noc.ReplayEvent{
			Cycle: ev.Cycle, Src: ev.Src, Dst: ev.Dst, Meta: ev.Meta,
			Req: ev.Kind == trace.EventMessage,
		}
	}
	// Hash() memoizes lazily; force it here, before the fan-out, so the
	// workers only ever read it.
	hash := t.Hash()
	var jobs []traceJob
	for _, topo := range topos {
		for _, router := range routers {
			jobs = append(jobs, traceJob{topo: topo, router: router})
		}
	}
	return par.Sweep(ctx, jobs, points, s.Parallelism, func(ctx context.Context, j traceJob) (Result, error) {
		r, err := runTracePoint(ctx, s.Cache, t, hash, events, j)
		r.Scenario = s.Name
		return r, err
	})
}

// runTracePoint replays the trace through one (topology, router) point.
// The cache key embeds the trace's content hash — the trailing SHA-256 of
// the file bytes — so a cached replay can never outlive its trace: any
// byte change (including header provenance) misses, and two identical
// files share entries.
func runTracePoint(ctx context.Context, rc *resultcache.Cache, t *trace.Trace, hash string, events []noc.ReplayEvent, j traceJob) (Result, error) {
	key := resultcache.NewKey("scenario/trace").
		Str("trace_sha256", hash).
		Str("topology", j.topo.Kind().String()).
		Str("router", j.router.String()).
		Sum()
	buf, _, err := rc.GetOrCompute(key, func() ([]byte, error) {
		m, err := noc.MeasureReplayCtx(ctx, j.topo, noc.ReplayConfig{
			Router: j.router, Events: events,
			Warmup: t.Header.Warmup, Measure: t.Header.Measure,
		})
		if err != nil {
			return nil, err
		}
		return json.Marshal(nocValueOf(m))
	})
	if err != nil {
		return Result{}, err
	}
	var m nocPointValue
	if err := json.Unmarshal(buf, &m); err != nil {
		return Result{}, fmt.Errorf("scenario: decoding cached trace point %s: %w", key, err)
	}
	h := t.Header
	return Result{
		// Replay rows carry the noc-synthetic schema: the recorded
		// provenance fills the pattern/rate/seed axes, so a same-fabric
		// replay row is byte-identical to its source row.
		Workload:       WorkloadNoC.String(),
		Topology:       j.topo.Kind().String(),
		Router:         j.router.String(),
		Pattern:        h.Pattern,
		Rate:           h.Rate,
		Seed:           h.Seed,
		Bursty:         h.Bursty,
		Cycles:         m.Cycles,
		Delivered:      m.Delivered,
		Throughput:     m.Throughput,
		MeanLatency:    m.MeanLatency,
		P99Latency:     m.P99Latency,
		DeflectionRate: m.DeflectionRate,
		PeakBuffer:     m.PeakBuffer,
	}, nil
}

// RecordCtx runs a single-point scenario with trace capture and returns
// the recorded trace alongside the run's results. NoC-synthetic points
// record flit-level injections through noc.TrafficConfig.Record; kernel
// points record eMPI message sends through the tie.SendRecorder hook.
// Recording detaches the result cache (a cache hit skips the simulation
// and would record nothing); the returned results are byte-identical to a
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
// carries the point's full provenance, so replaying it reproduces the
// run exactly.
func recordNoC(ctx context.Context, s *Scenario) (*trace.Trace, []Result, error) {
	c := s.NoC
	if len(c.MeasureWindows) > 0 {
		return nil, nil, fmt.Errorf("scenario: recording does not support measure_windows (a trace has one fixed horizon); use measure_cycles")
	}
	if n := s.NumPoints(); n != 1 {
		return nil, nil, fmt.Errorf("scenario: recording needs a single-point scenario (one topology, router, pattern, rate and seed), got %d points", n)
	}
	measure := c.MeasureCycles
	if measure == 0 {
		measure = 5000
	}
	jobs, err := nocJobs(s)
	if err != nil {
		return nil, nil, err
	}
	j := jobs[0]
	t := trace.New(trace.Header{
		Width: c.Width, Height: c.Height,
		Topology: j.topo.Kind().String(),
		Router:   j.router.String(),
		Pattern:  j.pattern.String(),
		Rate:     j.rate,
		Seed:     j.seed,
		Bursty:   c.Burst != nil,
		QueueCap: c.QueueCap,
		Warmup:   c.WarmupCycles,
		Measure:  measure,
	})
	run := *s
	run.Cache = nil
	run.Shard = nil
	run.Record = t
	results, err := RunCtx(ctx, &run)
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
	prev := tie.SetSendRecorder(t)
	defer tie.SetSendRecorder(prev)
	run := *s
	run.Cache = nil
	run.Shard = nil
	results, err := RunCtx(ctx, &run)
	if err != nil {
		return nil, nil, err
	}
	if n := len(t.Events); n > 0 {
		t.Header.Measure = t.Events[n-1].Cycle + 1
	}
	return t, results, nil
}
