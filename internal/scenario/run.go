package scenario

import (
	"context"
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
	// phase alone. A jacobi row's TotalCycles is its whole run, warm-up
	// included, and its MeanLatency the run's mean flit latency.
	TotalCycles    int64 `json:"total_cycles,omitempty"`
	TransferCycles int64 `json:"transfer_cycles,omitempty"`
	// Syncbench metric: mean cycles per synchronization episode.
	CyclesPerRound int64 `json:"cycles_per_round,omitempty"`
	// Shared kernel-side counters: memory-node occupancy versus
	// message-path traffic, and (jacobi rows) the run's deflected hops.
	MPMMUBusy   int64 `json:"mpmmu_busy,omitempty"`
	NoCFlits    int64 `json:"noc_flits,omitempty"`
	Deflections int64 `json:"deflections,omitempty"`
}

// RunCtx executes the scenario's full sweep cross-product and returns one
// Result per point, in deterministic axis order (independent of the
// execution interleaving): the canonical point list (Scenario.points) on
// one worker pool, with the kernel Speedup attached over the whole run.
// The scenario must have passed Validate (Load and Parse guarantee
// this). A canceled context stops dispatching new sweep points,
// interrupts in-flight simulations within a few thousand simulated
// cycles, and returns the context's error (wrapped in a
// par.CanceledError recording completed-point counts). The sweep is
// all-or-nothing either way: on any error no results are returned.
func RunCtx(ctx context.Context, s *Scenario) ([]Result, error) {
	ps, err := s.points()
	if err != nil {
		return nil, err
	}
	results, err := runPoints(ctx, s, ps, nil)
	if err != nil {
		return nil, err
	}
	attachSpeedup(results)
	return results, nil
}

// runPoints runs the points of ps that sel selects (nil: all of them;
// otherwise strictly increasing indices into ps) through par.Sweep and
// returns their rows in sel order. It is the one place a point's result
// cache is chosen: recording and the waveform bypass the cache, since a
// hit would skip the simulation and record or draw nothing.
func runPoints(ctx context.Context, s *Scenario, ps []point, sel []int) ([]Result, error) {
	rc := s.Cache
	if s.Record != nil || s.Waveform != nil {
		rc = nil
	}
	results, err := par.Sweep(ctx, ps, sel, s.Parallelism, func(ctx context.Context, p point) (Result, error) {
		r, err := p(ctx, rc)
		r.Scenario = s.Name
		return r, err
	})
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	return results, nil
}

// nocJob is one point of the noc-synthetic canonical order.
type nocJob struct {
	topo    noc.Topology
	router  noc.RouterKind
	pattern noc.Pattern
	rate    float64
	seed    int64
	measure int64 // the point's measurement window
	// Window-sweep points: every window of one (topology, router,
	// pattern, rate, seed) tuple shares a group, so the warmup prefix
	// simulates once and each window forks off its warm snapshot. group is
	// nil for a plain measure_cycles point.
	window int
	group  *windowGroup
}

// jobs expands topologies x routers x patterns x rates x seeds (x
// measure_windows) in canonical order. Window groups form over the
// canonical order, so under a points filter only the windows that landed
// in this shard share a warmup prefix.
func (c *NoCConfig) jobs(seeds []int64) ([]nocJob, error) {
	topos, err := c.fabrics()
	if err != nil {
		return nil, err
	}
	routers, err := c.routers()
	if err != nil {
		return nil, err
	}
	patterns, err := parseAxis("noc.patterns", c.Patterns, noc.ParsePattern)
	if err != nil {
		return nil, err
	}
	rates, err := parseAxis("noc.rates", c.Rates, asIs)
	if err != nil {
		return nil, err
	}
	windows, err := parseAxis("noc.measure_windows", c.MeasureWindows, asIs)
	if err != nil {
		return nil, err
	}
	var jobs []nocJob
	for _, topo := range topos {
		for _, router := range routers {
			for _, p := range patterns {
				for _, rate := range rates {
					for _, seed := range seeds {
						j := nocJob{topo: topo, router: router, pattern: p, rate: rate, seed: seed, measure: measureCycles(c.MeasureCycles)}
						if len(windows) == 0 {
							jobs = append(jobs, j)
							continue
						}
						j.group = &windowGroup{}
						for wi, w := range windows {
							j.window, j.measure = wi, w
							jobs = append(jobs, j)
						}
					}
				}
			}
		}
	}
	return jobs, nil
}

// nocPoints expands the noc-synthetic sweep: every point is an
// independent deterministic simulation, so the whole set is reproducible.
func nocPoints(s *Scenario) ([]point, error) {
	jobs, err := s.NoC.jobs(s.seedList())
	if err != nil {
		return nil, err
	}
	rec := noc.InjectionRecorder(nil)
	if s.Record != nil { // a nil *trace.Trace in the interface is not nil
		rec = s.Record
	}
	// The points of one run share their sources' injection streams: a
	// sparse stream is drawn once per (seed, rate, pattern, run length),
	// not once per router and fabric. Byte-identical to private draws.
	shared := noc.NewSchedules()
	ps := make([]point, len(jobs))
	for i, j := range jobs {
		ps[i] = func(ctx context.Context, rc *resultcache.Cache) (Result, error) {
			return runNoCPoint(ctx, rc, rec, shared, s.NoC, j)
		}
	}
	return ps, nil
}

// windowGroup computes one warm-prefix group of a measure_windows sweep
// exactly once: however many of its windows miss the result cache, the
// first to need data runs noc.Schedules.MeasureWindowsCtx for the whole
// group and the rest share the measurements. A fully cache-served group
// never simulates at all.
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

// measureCycles resolves a noc or service section's "measure_cycles": 0
// runs the default window of 5000 cycles, the one default of the file
// format itself (every other lives in noc's Validate). Keys take the
// resolved value, so an explicit 5000 keys identically to the default.
func measureCycles(n int64) int64 {
	if n == 0 {
		return 5000
	}
	return n
}

// pointKey derives the content address of one noc-synthetic or service
// point: the fabric it runs on (kind and endpoint grid) plus every keyed
// field of cfg, the config its simulation receives (see
// resultcache.KeyBuilder.Struct), so the key cannot miss an input the
// simulation reads.
func pointKey(domain string, topo noc.Topology, cfg any) resultcache.Key {
	w, h := topo.EndpointDims()
	return resultcache.NewKey(domain).
		Str("topology", topo.Kind().String()).
		Int("width", int64(w)).
		Int("height", int64(h)).
		Struct(cfg).
		Sum()
}

// nocMeasureConfig assembles the noc.MeasureConfig of one point and
// validates it, which resolves its defaults (noc.MeasureConfig.Validate):
// the one value its key and its simulation both read. A measure_windows
// point measures its own window, so it keys exactly as a plain
// measure_cycles point with that window length would
// (noc.Schedules.MeasureWindowsCtx ignores Measure in favour of the
// group's windows).
func nocMeasureConfig(c *NoCConfig, j nocJob) (noc.MeasureConfig, error) {
	mc := noc.MeasureConfig{
		Router: j.router,
		Traffic: noc.TrafficConfig{
			Pattern:     j.pattern,
			Rate:        j.rate,
			HotspotNode: c.HotspotNode,
			QueueCap:    c.QueueCap,
			Burst:       c.Burst,
		},
		Warmup:  c.WarmupCycles,
		Measure: j.measure,
		Seed:    j.seed,
	}
	err := mc.Validate(j.topo)
	return mc, err
}

// runNoCPoint simulates one point through the sweep's schedule store
// (noc.MeasureCtx's execution path), recalling it from the result cache
// when one is attached. Warm-snapshot forking is byte-identical to
// independent simulation (noc.Schedules.MeasureWindowsCtx's contract,
// enforced by the differential tests), so a measure_windows entry and a
// plain one of the same window interchange in the store; on a miss the
// whole group simulates once through the shared windowGroup and this
// point takes its window's measurement.
func runNoCPoint(ctx context.Context, rc *resultcache.Cache, rec noc.InjectionRecorder, shared *noc.Schedules, c *NoCConfig, j nocJob) (Result, error) {
	mc, err := nocMeasureConfig(c, j)
	if err != nil {
		return Result{}, err
	}
	m, err := resultcache.Fetch(rc, pointKey("scenario/noc", j.topo, mc), func() (noc.Measurement, error) {
		if j.group != nil {
			ms, err := j.group.measurements(ctx, shared, j.topo, mc, c.MeasureWindows)
			if err != nil {
				return noc.Measurement{}, err
			}
			return ms[j.window], nil
		}
		mc.Traffic.Record = rec
		return shared.MeasureCtx(ctx, j.topo, mc)
	})
	return nocRow(m, j.topo, j.router, j.pattern.String(), j.rate, j.seed, c.Burst != nil), err
}

// nocRow is the noc-synthetic schema's row: a measured value under its
// axis labels. Synthetic and replayed points both render through it.
func nocRow(m noc.Measurement, topo noc.Topology, router noc.RouterKind, pattern string, rate float64, seed int64, bursty bool) Result {
	return Result{
		Workload:       WorkloadNoC.String(),
		Topology:       topo.Kind().String(),
		Router:         router.String(),
		Pattern:        pattern,
		Rate:           rate,
		Seed:           seed,
		Bursty:         bursty,
		Cycles:         m.Cycles,
		Delivered:      m.Delivered,
		Throughput:     m.Throughput,
		MeanLatency:    m.MeanLatency,
		P99Latency:     m.P99Latency,
		DeflectionRate: m.DeflectionRate,
		PeakBuffer:     m.PeakBuffer,
	}
}
