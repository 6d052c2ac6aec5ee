package scenario

import (
	"context"

	"repro/internal/noc"
	"repro/internal/resultcache"
)

// serviceJob is one point of the service canonical order.
type serviceJob struct {
	topo   noc.Topology
	router noc.RouterKind
	rate   float64
	seed   int64
}

// jobs expands topologies x routers x arrival_rates x seeds in
// canonical order.
func (c *ServiceConfig) jobs(seeds []int64) ([]serviceJob, error) {
	topos, err := c.fabrics()
	if err != nil {
		return nil, err
	}
	routers, err := c.routers()
	if err != nil {
		return nil, err
	}
	rates, err := parseAxis("service.arrival_rates", c.ArrivalRates, asIs)
	if err != nil {
		return nil, err
	}
	var jobs []serviceJob
	for _, topo := range topos {
		for _, router := range routers {
			for _, rate := range rates {
				for _, seed := range seeds {
					jobs = append(jobs, serviceJob{topo: topo, router: router, rate: rate, seed: seed})
				}
			}
		}
	}
	return jobs, nil
}

// servicePoints expands the service sweep, one request/response
// simulation per point.
func servicePoints(s *Scenario) ([]point, error) {
	jobs, err := s.Service.jobs(s.seedList())
	if err != nil {
		return nil, err
	}
	ps := make([]point, len(jobs))
	for i, j := range jobs {
		ps[i] = func(ctx context.Context, rc *resultcache.Cache) (Result, error) {
			return runServicePoint(ctx, rc, s.Service, j)
		}
	}
	return ps, nil
}

// serviceMeasureConfig assembles the noc.ServiceMeasureConfig of one
// point and validates it, which resolves its defaults
// (noc.ServiceMeasureConfig.Validate): the one value its key and its
// simulation both read.
func serviceMeasureConfig(c *ServiceConfig, j serviceJob) (noc.ServiceMeasureConfig, error) {
	sc := noc.ServiceMeasureConfig{
		Router:        j.router,
		Servers:       c.Servers,
		ArrivalRate:   j.rate,
		ThinkTime:     c.ThinkTime,
		ResponseFlits: c.ResponseFlits,
		HotspotSkew:   c.HotspotSkew,
		QueueCap:      c.QueueCap,
		Burst:         c.Burst,
		Warmup:        c.WarmupCycles,
		Measure:       measureCycles(c.MeasureCycles),
		Seed:          j.seed,
	}
	err := sc.Validate(j.topo)
	return sc, err
}

// runServicePoint simulates one service point through
// noc.MeasureServiceCtx, recalling it from the result cache when one is
// attached.
func runServicePoint(ctx context.Context, rc *resultcache.Cache, c *ServiceConfig, j serviceJob) (Result, error) {
	sc, err := serviceMeasureConfig(c, j)
	if err != nil {
		return Result{}, err
	}
	m, err := resultcache.Fetch(rc, pointKey("scenario/service", j.topo, sc), func() (noc.ServiceMeasurement, error) {
		return noc.MeasureServiceCtx(ctx, j.topo, sc)
	})
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
	}, err
}
