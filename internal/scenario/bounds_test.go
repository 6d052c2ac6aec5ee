package scenario

import (
	"context"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/noc"
)

// TestBoundsAgree runs boundary inputs through scenario.Parse and through
// noc.MeasureCtx or noc.MeasureServiceCtx with the same value, and
// requires the same verdict from both, the one each row names: a point
// a file can declare is one the simulator runs, and a config the
// simulator refuses is one no file can declare. JSON cannot carry NaN,
// so a NaN row validates the built scenario (Parse is decode plus
// Validate).
func TestBoundsAgree(t *testing.T) {
	topo, err := noc.NewTopology(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	n := topo.NumEndpoints()
	badBurst := &noc.BurstConfig{MeanOn: 0, MeanOff: 10}
	nan := math.NaN()

	nocRows := []struct {
		name  string
		ok    bool
		file  func(*NoCConfig)
		point func(*noc.MeasureConfig)
	}{
		{"base", true, func(*NoCConfig) {}, func(*noc.MeasureConfig) {}},
		{"rate 0", false, func(c *NoCConfig) { c.Rates = []float64{0} }, func(mc *noc.MeasureConfig) { mc.Traffic.Rate = 0 }},
		{"rate 1", true, func(c *NoCConfig) { c.Rates = []float64{1} }, func(mc *noc.MeasureConfig) { mc.Traffic.Rate = 1 }},
		{"rate 1.5", false, func(c *NoCConfig) { c.Rates = []float64{1.5} }, func(mc *noc.MeasureConfig) { mc.Traffic.Rate = 1.5 }},
		{"rate NaN", false, func(c *NoCConfig) { c.Rates = []float64{nan} }, func(mc *noc.MeasureConfig) { mc.Traffic.Rate = nan }},
		{"queue cap -1", false, func(c *NoCConfig) { c.QueueCap = -1 }, func(mc *noc.MeasureConfig) { mc.Traffic.QueueCap = -1 }},
		{"warmup -1", false, func(c *NoCConfig) { c.WarmupCycles = -1 }, func(mc *noc.MeasureConfig) { mc.Warmup = -1 }},
		{"measure 0", false, func(c *NoCConfig) { c.MeasureCycles, c.MeasureWindows = 0, []int64{0} }, func(mc *noc.MeasureConfig) { mc.Measure = 0 }},
		{"hotspot node -1", false, func(c *NoCConfig) { c.HotspotNode = -1 }, func(mc *noc.MeasureConfig) { mc.Traffic.HotspotNode = -1 }},
		{"hotspot node n-1", true, func(c *NoCConfig) { c.HotspotNode = n - 1 }, func(mc *noc.MeasureConfig) { mc.Traffic.HotspotNode = n - 1 }},
		{"hotspot node n", false, func(c *NoCConfig) { c.HotspotNode = n }, func(mc *noc.MeasureConfig) { mc.Traffic.HotspotNode = n }},
		{"bad burst", false, func(c *NoCConfig) { c.Burst = badBurst }, func(mc *noc.MeasureConfig) { mc.Traffic.Burst = badBurst }},
	}
	for _, r := range nocRows {
		s := &Scenario{Workload: WorkloadNoC.String(), Seeds: []int64{1}, NoC: &NoCConfig{
			Width: 4, Height: 4, Patterns: []string{"hotspot"}, Rates: []float64{0.1}, MeasureCycles: 200,
		}}
		r.file(s.NoC)
		mc := noc.MeasureConfig{
			Router:  noc.RouterDeflection,
			Traffic: noc.TrafficConfig{Pattern: noc.Hotspot, Rate: 0.1},
			Measure: 200, Seed: 1,
		}
		r.point(&mc)
		_, simErr := noc.MeasureCtx(context.Background(), topo, mc)
		checkBoundVerdict(t, "noc "+r.name, r.ok, parseBuilt(s), simErr)
	}

	serviceRows := []struct {
		name  string
		ok    bool
		file  func(*ServiceConfig)
		point func(*noc.ServiceMeasureConfig)
	}{
		{"base", true, func(*ServiceConfig) {}, func(*noc.ServiceMeasureConfig) {}},
		{"rate 0", false, func(c *ServiceConfig) { c.ArrivalRates = []float64{0} }, func(sc *noc.ServiceMeasureConfig) { sc.ArrivalRate = 0 }},
		{"rate 1", true, func(c *ServiceConfig) { c.ArrivalRates = []float64{1} }, func(sc *noc.ServiceMeasureConfig) { sc.ArrivalRate = 1 }},
		{"rate 1.5", false, func(c *ServiceConfig) { c.ArrivalRates = []float64{1.5} }, func(sc *noc.ServiceMeasureConfig) { sc.ArrivalRate = 1.5 }},
		{"rate NaN", false, func(c *ServiceConfig) { c.ArrivalRates = []float64{nan} }, func(sc *noc.ServiceMeasureConfig) { sc.ArrivalRate = nan }},
		{"servers 0", false, func(c *ServiceConfig) { c.Servers = 0 }, func(sc *noc.ServiceMeasureConfig) { sc.Servers = 0 }},
		{"servers n-1", true, func(c *ServiceConfig) { c.Servers = n - 1 }, func(sc *noc.ServiceMeasureConfig) { sc.Servers = n - 1 }},
		{"servers n", false, func(c *ServiceConfig) { c.Servers = n }, func(sc *noc.ServiceMeasureConfig) { sc.Servers = n }},
		{"skew -0.1", false, func(c *ServiceConfig) { c.HotspotSkew = -0.1 }, func(sc *noc.ServiceMeasureConfig) { sc.HotspotSkew = -0.1 }},
		{"skew 1.1", false, func(c *ServiceConfig) { c.HotspotSkew = 1.1 }, func(sc *noc.ServiceMeasureConfig) { sc.HotspotSkew = 1.1 }},
		{"think time -1", false, func(c *ServiceConfig) { c.ThinkTime = -1 }, func(sc *noc.ServiceMeasureConfig) { sc.ThinkTime = -1 }},
		{"response flits -1", false, func(c *ServiceConfig) { c.ResponseFlits = -1 }, func(sc *noc.ServiceMeasureConfig) { sc.ResponseFlits = -1 }},
		{"queue cap -1", false, func(c *ServiceConfig) { c.QueueCap = -1 }, func(sc *noc.ServiceMeasureConfig) { sc.QueueCap = -1 }},
		{"measure -1", false, func(c *ServiceConfig) { c.MeasureCycles = -1 }, func(sc *noc.ServiceMeasureConfig) { sc.Measure = -1 }},
		{"bad burst", false, func(c *ServiceConfig) { c.Burst = badBurst }, func(sc *noc.ServiceMeasureConfig) { sc.Burst = badBurst }},
	}
	for _, r := range serviceRows {
		s := &Scenario{Workload: WorkloadService.String(), Seeds: []int64{1}, Service: &ServiceConfig{
			Width: 4, Height: 4, Servers: 4, ArrivalRates: []float64{0.03}, MeasureCycles: 200,
		}}
		r.file(s.Service)
		sc := noc.ServiceMeasureConfig{
			Router: noc.RouterDeflection, Servers: 4, ArrivalRate: 0.03, Measure: 200, Seed: 1,
		}
		r.point(&sc)
		_, simErr := noc.MeasureServiceCtx(context.Background(), topo, sc)
		checkBoundVerdict(t, "service "+r.name, r.ok, parseBuilt(s), simErr)
	}
}

// parseBuilt runs s through Parse as JSON, or through Validate when JSON
// cannot carry one of its values.
func parseBuilt(s *Scenario) error {
	data, err := json.Marshal(s)
	if err != nil {
		return s.Validate()
	}
	_, err = Parse(data)
	return err
}

func checkBoundVerdict(t *testing.T, name string, ok bool, fileErr, simErr error) {
	t.Helper()
	if (fileErr == nil) != ok || (simErr == nil) != ok {
		t.Errorf("%s: want accepted %v; scenario.Parse said %v, the simulator %v", name, ok, fileErr, simErr)
	}
}
