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
// execution path of the scenario runner's noc-synthetic points and of the
// benchmark's reference points, so their numbers are directly comparable.
// The key tags name each field in the scenario runner's result-cache key
// (resultcache.KeyBuilder.Struct); they are stored bytes.
type MeasureConfig struct {
	Router  RouterKind `key:"router"`
	Traffic TrafficConfig
	// Warmup cycles run before measurement starts (may be 0).
	Warmup int64 `key:"warmup_cycles"`
	// Measure is the measurement-window length in cycles (must be > 0).
	Measure int64 `key:"measure_cycles"`
	// Seed seeds every traffic node (deterministic per seed).
	Seed int64 `key:"seed"`
}

// Validate checks every per-point bound of mc on topo and resolves its
// traffic's defaults in place (TrafficConfig.Validate). MeasureCtx and
// MeasureWindowsCtx validate what they receive; the scenario runner
// validates each point before it keys it.
func (mc *MeasureConfig) Validate(topo Topology) error {
	if err := checkRig(mc.Router, mc.Warmup, mc.Measure); err != nil {
		return err
	}
	return mc.Traffic.Validate(topo)
}

// checkRig holds the bounds of the rig every measurement builds, which
// the synthetic and the service configs share: a defined router and the
// horizon.
func checkRig(router RouterKind, warmup, measure int64) error {
	if !routers.Valid(router) {
		return fmt.Errorf("noc: unknown router kind %d", int(router))
	}
	if warmup < 0 {
		return fmt.Errorf("noc: warmup_cycles must be >= 0, got %d", warmup)
	}
	if measure <= 0 {
		return fmt.Errorf("noc: measure_cycles must be positive, got %d", measure)
	}
	return nil
}

// Measurement is the result of one MeasureCtx call. Latency statistics cover
// only flits delivered inside the measurement window; peak buffer covers
// the whole run (buffers fill during warmup too, and sizing hardware needs
// the worst case). It is also the scenario runner's cached value of a
// noc-synthetic or trace point: the json tags are stored bytes, and a
// field tagged "-" is not stored.
type Measurement struct {
	Cycles    int64 `json:"cycles"`    // measurement window length
	Delivered int64 `json:"delivered"` // flits ejected in the window
	// Deflections counts unproductive hops assigned in the window. Not
	// stored: rows report DeflectionRate.
	Deflections int64   `json:"-"`
	Throughput  float64 `json:"throughput"`
	MeanLatency float64 `json:"mean_latency"`
	P99Latency  float64 `json:"p99_latency"`
	// DeflectionRate is deflections per delivered flit (0 for buffered
	// routers, which never deflect).
	DeflectionRate float64 `json:"deflection_rate"`
	// PeakBuffer is the worst per-switch buffer occupancy (0 for
	// bufferless routers).
	PeakBuffer int `json:"peak_buffer"`
	// CyclesSkipped counts the window's cycles the engine fast-forwarded
	// over instead of ticking (see internal/sim/sched.go). A pure
	// performance counter: every other field is byte-identical whatever
	// its value, which the differential tests assert. It is deliberately
	// excluded from rendered tables and the stored value, so cached and
	// fresh points stay byte-identical.
	CyclesSkipped int64 `json:"-"`
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
// comparable per attached node. A config that fails Validate is an error.
// The context is polled every few thousand simulated cycles, so a
// canceled measurement stops in bounded wall time and returns the
// context's error with a zero-value Measurement.
func MeasureCtx(ctx context.Context, topo Topology, mc MeasureConfig) (Measurement, error) {
	return (*Schedules)(nil).MeasureCtx(ctx, topo, mc)
}

// MeasureCtx is the package-level MeasureCtx with the sources' injection
// streams shared through s; the Measurement is byte-identical.
func (s *Schedules) MeasureCtx(ctx context.Context, topo Topology, mc MeasureConfig) (Measurement, error) {
	if err := mc.Validate(topo); err != nil {
		return Measurement{}, err
	}
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
// differential tests assert. The sources' injection streams are shared
// through s (a nil s draws them privately); the cursor into a schedule is
// part of a source's snapshot, so each window replays from the warm one.
// Each window must pass Validate as mc's Measure.
func (s *Schedules) MeasureWindowsCtx(ctx context.Context, topo Topology, mc MeasureConfig, windows []int64) ([]Measurement, error) {
	if len(windows) == 0 {
		return nil, fmt.Errorf("noc: no measurement windows")
	}
	var longest int64
	for _, w := range windows {
		mc.Measure = w
		if err := mc.Validate(topo); err != nil {
			return nil, err
		}
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
