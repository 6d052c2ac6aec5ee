package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/noc"
	"repro/internal/par"
	"repro/internal/resultcache"
)

// Result is one evaluated sweep point. NoC-synthetic points fill the
// pattern/rate/seed axes and the network metrics; kernel points (jacobi,
// matmul, syncbench) fill the variant/cores/cache/policy axes and the
// metrics of their kernel.
type Result struct {
	Scenario string `json:"scenario"`
	Workload string `json:"workload"`

	// NoC axes.
	Topology string  `json:"topology,omitempty"`
	Router   string  `json:"router,omitempty"`
	Pattern  string  `json:"pattern,omitempty"`
	Rate     float64 `json:"rate,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
	Bursty   bool    `json:"bursty,omitempty"`

	// Kernel axes (shared by jacobi, matmul and syncbench).
	Cores   int    `json:"cores,omitempty"`
	CacheKB int    `json:"cache_kb,omitempty"`
	Policy  string `json:"policy,omitempty"`
	Variant string `json:"variant,omitempty"`

	// NoC metrics, over the measurement window only (PeakBuffer covers
	// the whole run: buffers fill during warmup too and hardware must be
	// sized for the worst case).
	Cycles         int64   `json:"cycles,omitempty"`     // measurement window length
	Delivered      int64   `json:"delivered,omitempty"`  // flits ejected in the window
	Throughput     float64 `json:"throughput,omitempty"` // delivered flits/node/cycle
	MeanLatency    float64 `json:"mean_latency,omitempty"`
	P99Latency     float64 `json:"p99_latency,omitempty"`
	DeflectionRate float64 `json:"deflection_rate,omitempty"` // deflections per delivered flit
	PeakBuffer     int     `json:"peak_buffer,omitempty"`     // worst per-switch buffer occupancy

	// Jacobi metrics.
	CyclesPerIter int64   `json:"cycles_per_iter,omitempty"`
	MissRate      float64 `json:"miss_rate,omitempty"`
	AreaMM2       float64 `json:"area_mm2,omitempty"`
	Speedup       float64 `json:"speedup,omitempty"` // also filled for matmul/syncbench

	// Service axes (the topology/router/seed axes above are shared) and
	// metrics: request counts, the per-request latency breakdown means
	// (queue + net_out + server + net_back = mean_latency), and the
	// server-side p99. Cycles/Throughput/MeanLatency/P99Latency/PeakBuffer
	// above are shared too — Throughput is completed requests per client
	// per cycle on service rows.
	Servers     int     `json:"servers,omitempty"`
	ArrivalRate float64 `json:"arrival_rate,omitempty"`
	HotspotSkew float64 `json:"hotspot_skew,omitempty"`
	Issued      int64   `json:"issued,omitempty"`
	Completed   int64   `json:"completed,omitempty"`
	InFlight    int64   `json:"in_flight,omitempty"`
	Throttled   int64   `json:"throttled,omitempty"`
	MeanQueue   float64 `json:"mean_queue,omitempty"`
	MeanNetOut  float64 `json:"mean_net_out,omitempty"`
	MeanServer  float64 `json:"mean_server,omitempty"`
	MeanNetBack float64 `json:"mean_net_back,omitempty"`
	P99Server   float64 `json:"p99_server,omitempty"`

	// Matmul metrics: barrier-to-barrier total and the B-distribution
	// phase alone.
	TotalCycles    int64 `json:"total_cycles,omitempty"`
	TransferCycles int64 `json:"transfer_cycles,omitempty"`
	// Syncbench metric: mean cycles per synchronization episode.
	CyclesPerRound int64 `json:"cycles_per_round,omitempty"`
	// Shared kernel-side counters (matmul and syncbench rows): memory-
	// node occupancy versus message-path traffic.
	MPMMUBusy int64 `json:"mpmmu_busy,omitempty"`
	NoCFlits  int64 `json:"noc_flits,omitempty"`
}

// RunCtx executes the scenario's full sweep cross-product and returns one
// Result per point, in deterministic axis order (independent of the
// execution interleaving): one block per workload, each produced by its
// registered Workload implementation. The scenario must have passed
// Validate (Load and Parse guarantee this). A canceled context stops
// dispatching new sweep points, interrupts in-flight simulations within a
// few thousand simulated cycles, and returns the context's error (wrapped
// in a par.CanceledError recording completed-point counts). The sweep is
// all-or-nothing either way: on any error no results are returned.
func RunCtx(ctx context.Context, s *Scenario) ([]Result, error) {
	kinds, err := s.workloadKinds()
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	var all []Result
	for _, k := range kinds {
		results, err := ForKind(k).Run(ctx, s, nil)
		if err != nil {
			return nil, err
		}
		all = append(all, results...)
	}
	return all, nil
}

// nocJob is one point of the noc-synthetic canonical order.
type nocJob struct {
	topo    noc.Topology
	router  noc.RouterKind
	pattern noc.Pattern
	rate    float64
	seed    int64
	// Window-sweep points: every window of one (topology, router,
	// pattern, rate, seed) tuple shares a group, so the warmup prefix
	// simulates once and each window forks off its warm snapshot. group is
	// nil for a plain measure_cycles point.
	window int
	group  *windowGroup
}

// nocJobs expands topologies x routers x patterns x rates x seeds (x
// measure_windows) in canonical order. Window groups form over the
// canonical order, so under a points filter only the windows that landed
// in this shard share a warmup prefix.
func nocJobs(s *Scenario) ([]nocJob, error) {
	c := s.NoC
	topos, err := c.fabrics()
	if err != nil {
		return nil, err
	}
	routers, err := c.routers()
	if err != nil {
		return nil, err
	}
	patterns := make([]noc.Pattern, 0, len(c.Patterns))
	for _, name := range c.Patterns {
		p, err := noc.ParsePattern(name)
		if err != nil {
			return nil, err
		}
		for _, topo := range topos {
			if err := noc.ValidatePattern(p, topo); err != nil {
				return nil, err
			}
		}
		patterns = append(patterns, p)
	}
	var jobs []nocJob
	for _, topo := range topos {
		for _, router := range routers {
			for _, p := range patterns {
				for _, rate := range c.Rates {
					for _, seed := range s.seedList() {
						j := nocJob{topo: topo, router: router, pattern: p, rate: rate, seed: seed}
						if len(c.MeasureWindows) == 0 {
							jobs = append(jobs, j)
							continue
						}
						j.group = &windowGroup{}
						for wi := range c.MeasureWindows {
							j.window = wi
							jobs = append(jobs, j)
						}
					}
				}
			}
		}
	}
	return jobs, nil
}

// Run executes the noc-synthetic sweep: every point is an independent
// deterministic simulation, so the whole set is reproducible.
func (nocWorkload) Run(ctx context.Context, s *Scenario, points []int) ([]Result, error) {
	jobs, err := nocJobs(s)
	if err != nil {
		return nil, err
	}
	// Recording bypasses the cache: a hit would skip the simulation and
	// record nothing (RecordCtx also detaches the cache, this is the
	// defence in depth for hand-wired scenarios).
	rcache, rec := s.Cache, noc.InjectionRecorder(nil)
	if s.Record != nil { // a nil *trace.Trace in the interface is not nil
		rcache, rec = nil, s.Record
	}
	// The points of one call share their sources' injection streams: a
	// sparse stream is drawn once per (seed, rate, pattern, run length),
	// not once per router and fabric. Byte-identical to private draws.
	shared := noc.NewSchedules()
	return par.Sweep(ctx, jobs, points, s.Parallelism, func(ctx context.Context, j nocJob) (Result, error) {
		r, err := runNoCPoint(ctx, rcache, rec, shared, s.NoC, j)
		r.Scenario = s.Name
		return r, err
	})
}

// windowGroup computes one warm-prefix group of a measure_windows sweep
// exactly once: however many of its windows miss the result cache, the
// first to need data runs noc.MeasureWindowsCtx for the whole group and
// the rest share the measurements. A fully cache-served group never
// simulates at all.
type windowGroup struct {
	once sync.Once
	ms   []noc.Measurement
	err  error
}

func (g *windowGroup) measurements(ctx context.Context, shared *noc.Schedules, topo noc.Topology, mc noc.MeasureConfig, windows []int64) ([]noc.Measurement, error) {
	g.once.Do(func() {
		g.ms, g.err = shared.MeasureWindowsCtx(ctx, topo, mc, windows)
	})
	return g.ms, g.err
}

// nocPointValue is the cached measurement of one noc-synthetic point: the
// raw noc.MeasureCtx metrics only; axis labels reattach from the job.
type nocPointValue struct {
	Cycles         int64   `json:"cycles"`
	Delivered      int64   `json:"delivered"`
	Throughput     float64 `json:"throughput"`
	MeanLatency    float64 `json:"mean_latency"`
	P99Latency     float64 `json:"p99_latency"`
	DeflectionRate float64 `json:"deflection_rate"`
	PeakBuffer     int     `json:"peak_buffer"`
}

// nocPointKey derives the content address of one noc-synthetic point from
// every input the measurement depends on (the defaults are resolved first,
// so an explicit "measure_cycles": 5000 keys identically to the default).
func nocPointKey(c *NoCConfig, j nocJob, measure int64) resultcache.Key {
	b := resultcache.NewKey("scenario/noc").
		Str("topology", j.topo.Kind().String()).
		Int("width", int64(c.Width)).
		Int("height", int64(c.Height)).
		Str("router", j.router.String()).
		Str("pattern", j.pattern.String()).
		Float("rate", j.rate).
		Int("seed", j.seed).
		Int("hotspot_node", int64(c.HotspotNode)).
		Int("queue_cap", int64(c.QueueCap)).
		Int("warmup_cycles", c.WarmupCycles).
		Int("measure_cycles", measure)
	if c.Burst != nil {
		b.Float("burst_mean_on", c.Burst.MeanOn).Float("burst_mean_off", c.Burst.MeanOff)
	}
	return b.Sum()
}

// nocMeasureConfig assembles the noc.MeasureConfig for one point.
// measure is a fixed window, or 0 for a measure_windows group.
func nocMeasureConfig(c *NoCConfig, j nocJob, measure int64) noc.MeasureConfig {
	var burst *noc.BurstConfig
	if c.Burst != nil {
		burst = &noc.BurstConfig{MeanOn: c.Burst.MeanOn, MeanOff: c.Burst.MeanOff}
	}
	return noc.MeasureConfig{
		Router: j.router,
		Traffic: noc.TrafficConfig{
			Pattern:     j.pattern,
			Rate:        j.rate,
			HotspotNode: c.HotspotNode,
			QueueCap:    c.QueueCap,
			Burst:       burst,
		},
		Warmup:  c.WarmupCycles,
		Measure: measure,
		Seed:    j.seed,
	}
}

// nocValueOf projects a Measurement onto the cached codec. CyclesSkipped
// is deliberately dropped: it counts simulation work, not simulated
// behaviour, so cached and fresh points stay byte-identical.
func nocValueOf(m noc.Measurement) nocPointValue {
	return nocPointValue{
		Cycles:         m.Cycles,
		Delivered:      m.Delivered,
		Throughput:     m.Throughput,
		MeanLatency:    m.MeanLatency,
		P99Latency:     m.P99Latency,
		DeflectionRate: m.DeflectionRate,
		PeakBuffer:     m.PeakBuffer,
	}
}

// runNoCPoint simulates one point through the sweep's schedule store
// (noc.MeasureCtx's execution path, shared with cmd/medea-noc), recalling
// it from the result cache when one is attached. A measure_windows point keys exactly as a plain
// measure_cycles point with its window length would — warm-snapshot
// forking is byte-identical to independent simulation
// (noc.MeasureWindowsCtx's contract, enforced by the differential tests),
// so the two entry kinds interchange in the store; on a miss the whole
// group simulates once through the shared windowGroup and this point
// takes its window's measurement.
func runNoCPoint(ctx context.Context, rc *resultcache.Cache, rec noc.InjectionRecorder, shared *noc.Schedules, c *NoCConfig, j nocJob) (Result, error) {
	measure := c.MeasureCycles
	if measure == 0 {
		measure = 5000
	}
	if j.group != nil {
		measure = c.MeasureWindows[j.window]
	}
	key := nocPointKey(c, j, measure)
	buf, _, err := rc.GetOrCompute(key, func() ([]byte, error) {
		if j.group != nil {
			ms, err := j.group.measurements(ctx, shared, j.topo, nocMeasureConfig(c, j, 0), c.MeasureWindows)
			if err != nil {
				return nil, err
			}
			return json.Marshal(nocValueOf(ms[j.window]))
		}
		mc := nocMeasureConfig(c, j, measure)
		mc.Traffic.Record = rec
		m, err := shared.MeasureCtx(ctx, j.topo, mc)
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
		return Result{}, fmt.Errorf("scenario: decoding cached noc point %s: %w", key, err)
	}
	return Result{
		Workload:       WorkloadNoC.String(),
		Topology:       j.topo.Kind().String(),
		Router:         j.router.String(),
		Pattern:        j.pattern.String(),
		Rate:           j.rate,
		Seed:           j.seed,
		Bursty:         c.Burst != nil,
		Cycles:         m.Cycles,
		Delivered:      m.Delivered,
		Throughput:     m.Throughput,
		MeanLatency:    m.MeanLatency,
		P99Latency:     m.P99Latency,
		DeflectionRate: m.DeflectionRate,
		PeakBuffer:     m.PeakBuffer,
	}, nil
}
