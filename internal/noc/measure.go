package noc

import (
	"context"
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
)

// MeasureConfig parameterizes one synthetic-traffic measurement point: a
// router kind, a traffic configuration applied to every node, a warmup
// window that runs unmeasured, and a measurement window. It is the single
// execution path shared by the scenario runner, the dse router-ablation
// experiment and cmd/medea-noc, so their numbers are directly comparable.
type MeasureConfig struct {
	Router  RouterKind
	Traffic TrafficConfig
	// Warmup cycles run before measurement starts (may be 0).
	Warmup int64
	// Measure is the measurement-window length in cycles (must be > 0).
	Measure int64
	// Seed seeds every traffic node (deterministic per seed).
	Seed int64
}

// Measurement is the result of one MeasureCtx call. Latency statistics cover
// only flits delivered inside the measurement window; peak buffer covers
// the whole run (buffers fill during warmup too, and sizing hardware needs
// the worst case).
type Measurement struct {
	Cycles      int64 // measurement window length
	Delivered   int64 // flits ejected in the window
	Deflections int64 // unproductive hops assigned in the window
	Throughput  float64
	MeanLatency float64
	P99Latency  float64
	MeanHops    float64
	// DeflectionRate is deflections per delivered flit (0 for buffered
	// routers, which never deflect).
	DeflectionRate float64
	// PeakBuffer is the worst per-switch buffer occupancy (0 for
	// bufferless routers).
	PeakBuffer int
	// CyclesSkipped counts the window's cycles the engine fast-forwarded
	// over instead of ticking (see internal/sim/sched.go). A pure
	// performance counter: every other field is byte-identical whatever
	// its value, which the differential tests assert. It is deliberately
	// excluded from rendered tables and cache codecs.
	CyclesSkipped int64
}

// measureRig is a built network ready to run: the engine, the fabric and
// one endpoint component per endpoint.
type measureRig struct {
	e *sim.Engine
	n *Network
}

// newRig builds the fabric, attaches and registers the endpoint component
// node(i) returns for every endpoint i, and runs the unmeasured warmup.
// Every measurement entry point starts here.
func newRig(ctx context.Context, topo Topology, router RouterKind, warmup int64, node func(i int) (LocalPort, sim.Component)) (*measureRig, error) {
	e := sim.NewEngine()
	n := NewRouterNetwork(e, topo, router)
	for i := 0; i < topo.NumEndpoints(); i++ {
		port, comp := node(i)
		n.Attach(i, port)
		e.Register(sim.PhaseNode, comp)
	}
	if err := e.RunCtx(ctx, warmup); err != nil {
		return nil, err
	}
	return &measureRig{e: e, n: n}, nil
}

// newTrafficRig is newRig with one synthetic traffic node per endpoint,
// each replaying its shared schedule from s over a run of length cycles
// when s has one for it.
func (s *Schedules) newTrafficRig(ctx context.Context, topo Topology, mc MeasureConfig, length int64) (*measureRig, error) {
	shared, err := s.group(ctx, topo, mc, length)
	if err != nil {
		return nil, err
	}
	return newRig(ctx, topo, mc.Router, mc.Warmup, func(i int) (LocalPort, sim.Component) {
		tn := NewTrafficNode(i, topo, mc.Traffic, mc.Seed)
		if shared != nil {
			tn.inj.sched = &shared[i]
		}
		return tn, tn
	})
}

// window runs one measurement window on a warmed-up rig, attaching a
// fresh latency sample and counter baselines so only flits delivered
// inside the window count.
func (r *measureRig) window(ctx context.Context, topo Topology, measure int64) (Measurement, error) {
	e, n := r.e, r.n
	sample := &stats.CycleSample{}
	n.Stats.LatencySample = sample
	delivered0 := n.Stats.Delivered.Value()
	deflected0 := n.TotalDeflections()
	hopsN0, hopsSum := n.Stats.Hops.Count(), n.Stats.Hops.Sum()
	skipped0 := e.CyclesSkipped()
	if err := e.RunCtx(ctx, measure); err != nil {
		return Measurement{}, err
	}

	delivered := n.Stats.Delivered.Value() - delivered0
	deflected := n.TotalDeflections() - deflected0
	m := Measurement{
		Cycles:      measure,
		Delivered:   delivered,
		Deflections: deflected,
		Throughput: float64(delivered) / float64(measure) /
			float64(topo.NumEndpoints()),
		MeanLatency:   sample.Mean(),
		P99Latency:    sample.Percentile(99),
		PeakBuffer:    n.PeakBuffer(),
		CyclesSkipped: e.CyclesSkipped() - skipped0,
	}
	if dn := n.Stats.Hops.Count() - hopsN0; dn > 0 {
		m.MeanHops = (n.Stats.Hops.Sum() - hopsSum) / float64(dn)
	}
	if delivered > 0 {
		m.DeflectionRate = float64(deflected) / float64(delivered)
	}
	return m, nil
}

// MeasureCtx simulates one (topology, router, traffic, seed) point: build
// a fresh network, attach one traffic node per endpoint, warm up, then
// measure over an exact latency sample and counter snapshots so only
// flits delivered inside the window count. Throughput is normalized per
// endpoint, so topologies with different switch counts (the cmesh) stay
// comparable per attached node. The context is polled every few thousand
// simulated cycles, so a canceled measurement stops in bounded wall time
// and returns the context's error with a zero-value Measurement.
func MeasureCtx(ctx context.Context, topo Topology, mc MeasureConfig) (Measurement, error) {
	return (*Schedules)(nil).MeasureCtx(ctx, topo, mc)
}

// MeasureCtx is the package-level MeasureCtx with the sources' injection
// streams shared through s; the Measurement is byte-identical.
func (s *Schedules) MeasureCtx(ctx context.Context, topo Topology, mc MeasureConfig) (Measurement, error) {
	r, err := s.newTrafficRig(ctx, topo, mc, mc.Warmup+mc.Measure)
	if err != nil {
		return Measurement{}, err
	}
	return r.window(ctx, topo, mc.Measure)
}

// MeasureWindowsCtx measures several window lengths that share one warmup
// prefix (same topology, router, traffic and seed; mc.Measure is ignored
// in favour of windows): it simulates the warmup once, snapshots the
// complete engine state, and restores that warm snapshot before each
// window. Every returned Measurement is byte-identical to an independent
// MeasureCtx call with the same warmup and that window, which the
// differential tests assert.
func MeasureWindowsCtx(ctx context.Context, topo Topology, mc MeasureConfig, windows []int64) ([]Measurement, error) {
	return (*Schedules)(nil).MeasureWindowsCtx(ctx, topo, mc, windows)
}

// MeasureWindowsCtx is the package-level MeasureWindowsCtx with the
// sources' injection streams shared through s; the cursor into a schedule
// is part of a source's snapshot, so each window replays from the warm
// one.
func (s *Schedules) MeasureWindowsCtx(ctx context.Context, topo Topology, mc MeasureConfig, windows []int64) ([]Measurement, error) {
	var longest int64
	for _, w := range windows {
		longest = max(longest, w)
	}
	r, err := s.newTrafficRig(ctx, topo, mc, mc.Warmup+longest)
	if err != nil {
		return nil, err
	}
	snap, err := r.e.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("noc: warm snapshot: %w", err)
	}
	// NetStats lives outside the engine (the Network is not a component),
	// so the warm copy is captured and reinstated alongside the engine
	// snapshot. The latency-sample hook is per-window and never part of
	// the warm state.
	warmStats := r.n.Stats
	warmStats.LatencySample = nil
	out := make([]Measurement, len(windows))
	for i, w := range windows {
		if err := r.e.Restore(snap); err != nil {
			return nil, fmt.Errorf("noc: restoring warm snapshot: %w", err)
		}
		r.n.Stats = warmStats
		m, err := r.window(ctx, topo, w)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}
