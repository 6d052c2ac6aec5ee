package scenario

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/noc"
	"repro/internal/par"
	"repro/internal/resultcache"
)

// serviceJob is one point of the service canonical order.
type serviceJob struct {
	topo   noc.Topology
	router noc.RouterKind
	rate   float64
	seed   int64
}

// Run expands topologies x routers x arrival_rates x seeds in canonical
// order and executes each request/response point on the sweep pool.
func (serviceWorkload) Run(ctx context.Context, s *Scenario, points []int) ([]Result, error) {
	c := s.Service
	topos, err := c.fabrics()
	if err != nil {
		return nil, err
	}
	routers, err := c.routers()
	if err != nil {
		return nil, err
	}
	var jobs []serviceJob
	for _, topo := range topos {
		for _, router := range routers {
			for _, rate := range c.ArrivalRates {
				for _, seed := range s.seedList() {
					jobs = append(jobs, serviceJob{topo: topo, router: router, rate: rate, seed: seed})
				}
			}
		}
	}
	return par.Sweep(ctx, jobs, points, s.Parallelism, func(ctx context.Context, j serviceJob) (Result, error) {
		r, err := runServicePoint(ctx, s.Cache, c, j)
		r.Scenario = s.Name
		return r, err
	})
}

// servicePointValue is the cached measurement of one service point; like
// nocPointValue it drops CyclesSkipped so cached and fresh points stay
// byte-identical, and axis labels reattach from the job.
type servicePointValue struct {
	Cycles      int64   `json:"cycles"`
	Issued      int64   `json:"issued"`
	Completed   int64   `json:"completed"`
	InFlight    int64   `json:"in_flight"`
	Throttled   int64   `json:"throttled"`
	Throughput  float64 `json:"throughput"`
	MeanQueue   float64 `json:"mean_queue"`
	MeanNetOut  float64 `json:"mean_net_out"`
	MeanServer  float64 `json:"mean_server"`
	MeanNetBack float64 `json:"mean_net_back"`
	MeanLatency float64 `json:"mean_latency"`
	P99Latency  float64 `json:"p99_latency"`
	P99Server   float64 `json:"p99_server"`
	PeakBuffer  int     `json:"peak_buffer"`
}

// servicePointKey derives the content address of one service point from
// every input the measurement depends on, defaults resolved first.
func servicePointKey(c *ServiceConfig, j serviceJob, measure int64) resultcache.Key {
	b := resultcache.NewKey("scenario/service").
		Str("topology", j.topo.Kind().String()).
		Int("width", int64(c.Width)).
		Int("height", int64(c.Height)).
		Str("router", j.router.String()).
		Int("servers", int64(c.Servers)).
		Float("arrival_rate", j.rate).
		Int("think_time", c.ThinkTime).
		Int("response_flits", int64(c.ResponseFlits)).
		Float("hotspot_skew", c.HotspotSkew).
		Int("queue_cap", int64(c.QueueCap)).
		Int("seed", j.seed).
		Int("warmup_cycles", c.WarmupCycles).
		Int("measure_cycles", measure)
	if c.Burst != nil {
		b.Float("burst_mean_on", c.Burst.MeanOn).Float("burst_mean_off", c.Burst.MeanOff)
	}
	return b.Sum()
}

// runServicePoint simulates one service point through
// noc.MeasureServiceCtx, recalling it from the result cache when one is
// attached.
func runServicePoint(ctx context.Context, rc *resultcache.Cache, c *ServiceConfig, j serviceJob) (Result, error) {
	measure := c.MeasureCycles
	if measure == 0 {
		measure = 5000
	}
	key := servicePointKey(c, j, measure)
	buf, _, err := rc.GetOrCompute(key, func() ([]byte, error) {
		var burst *noc.BurstConfig
		if c.Burst != nil {
			burst = &noc.BurstConfig{MeanOn: c.Burst.MeanOn, MeanOff: c.Burst.MeanOff}
		}
		m, err := noc.MeasureServiceCtx(ctx, j.topo, noc.ServiceMeasureConfig{
			Router:        j.router,
			Servers:       c.Servers,
			ArrivalRate:   j.rate,
			ThinkTime:     c.ThinkTime,
			ResponseFlits: c.ResponseFlits,
			HotspotSkew:   c.HotspotSkew,
			QueueCap:      c.QueueCap,
			Burst:         burst,
			Warmup:        c.WarmupCycles,
			Measure:       measure,
			Seed:          j.seed,
		})
		if err != nil {
			return nil, err
		}
		return json.Marshal(servicePointValue{
			Cycles:      m.Cycles,
			Issued:      m.Issued,
			Completed:   m.Completed,
			InFlight:    m.InFlight,
			Throttled:   m.Throttled,
			Throughput:  m.Throughput,
			MeanQueue:   m.MeanQueue,
			MeanNetOut:  m.MeanNetOut,
			MeanServer:  m.MeanServer,
			MeanNetBack: m.MeanNetBack,
			MeanLatency: m.MeanLatency,
			P99Latency:  m.P99Latency,
			P99Server:   m.P99Server,
			PeakBuffer:  m.PeakBuffer,
		})
	})
	if err != nil {
		return Result{}, err
	}
	var m servicePointValue
	if err := json.Unmarshal(buf, &m); err != nil {
		return Result{}, fmt.Errorf("scenario: decoding cached service point %s: %w", key, err)
	}
	return Result{
		Workload:    WorkloadService.String(),
		Topology:    j.topo.Kind().String(),
		Router:      j.router.String(),
		Seed:        j.seed,
		Bursty:      c.Burst != nil,
		Servers:     c.Servers,
		ArrivalRate: j.rate,
		HotspotSkew: c.HotspotSkew,
		Cycles:      m.Cycles,
		Issued:      m.Issued,
		Completed:   m.Completed,
		InFlight:    m.InFlight,
		Throttled:   m.Throttled,
		Throughput:  m.Throughput,
		MeanQueue:   m.MeanQueue,
		MeanNetOut:  m.MeanNetOut,
		MeanServer:  m.MeanServer,
		MeanNetBack: m.MeanNetBack,
		MeanLatency: m.MeanLatency,
		P99Latency:  m.P99Latency,
		P99Server:   m.P99Server,
		PeakBuffer:  m.PeakBuffer,
	}, nil
}
