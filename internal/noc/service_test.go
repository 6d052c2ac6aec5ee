package noc

import (
	"context"
	"reflect"
	"testing"
)

func svcConfig() ServiceMeasureConfig {
	return ServiceMeasureConfig{
		Router:      RouterDeflection,
		Servers:     4,
		ArrivalRate: 0.05,
		ThinkTime:   5,
		Measure:     4000,
		Seed:        3,
	}
}

func mustTorus(t *testing.T) Topology {
	t.Helper()
	topo, err := NewTopologyOfKind(TopoTorus, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestServiceRequestConservation: with no warmup, every issued request is
// either completed or still in flight when the window ends — exactly.
// Throttled arrivals never enter the pending set, so they are excluded on
// both sides of the ledger.
func TestServiceRequestConservation(t *testing.T) {
	topo := mustTorus(t)
	for _, sc := range []ServiceMeasureConfig{
		svcConfig(),
		{Router: RouterDeflection, Servers: 1, ArrivalRate: 0.2, ThinkTime: 20, Measure: 3000, Seed: 9, QueueCap: 4},
		{Router: RouterXY, Servers: 4, ArrivalRate: 0.1, ThinkTime: 2, ResponseFlits: 3, HotspotSkew: 0.5, Measure: 3000, Seed: 5},
	} {
		m, err := MeasureServiceCtx(context.Background(), topo, sc)
		if err != nil {
			t.Fatal(err)
		}
		if m.Issued == 0 {
			t.Errorf("%+v: no requests issued", sc)
		}
		if m.Issued != m.Completed+m.InFlight {
			t.Errorf("conservation violated: issued %d != completed %d + in-flight %d",
				m.Issued, m.Completed, m.InFlight)
		}
		if m.Completed == 0 {
			t.Errorf("%+v: nothing completed in %d cycles", sc, sc.Measure)
		}
	}
}

// TestServiceBreakdownSums: per completed request, the four breakdown
// components sum exactly to the end-to-end latency (they are differences
// of the same five stamps), and every stamp is set and ordered.
func TestServiceBreakdownSums(t *testing.T) {
	topo := mustTorus(t)
	sc := svcConfig()
	rig, err := buildServiceRig(context.Background(), topo, sc)
	if err != nil {
		t.Fatal(err)
	}
	var seen int
	rig.board.onComplete = func(r svcRequest) {
		seen++
		for name, v := range map[string]int64{
			"create": r.create, "inject": r.inject, "arrive": r.arrive,
			"respInject": r.respInject, "done": r.done,
		} {
			if v < 0 {
				t.Fatalf("completed request has unset %s stamp: %+v", name, r)
			}
		}
		if !(r.create <= r.inject && r.inject < r.arrive && r.arrive <= r.respInject && r.respInject < r.done) {
			t.Fatalf("stamps out of order: %+v", r)
		}
		e2e := r.done - r.create
		sum := (r.inject - r.create) + (r.arrive - r.inject) + (r.respInject - r.arrive) + (r.done - r.respInject)
		if sum != e2e {
			t.Fatalf("breakdown sum %d != end-to-end %d: %+v", sum, e2e, r)
		}
	}
	if _, err := rig.window(context.Background(), topo, sc); err != nil {
		t.Fatal(err)
	}
	if seen == 0 {
		t.Fatal("no requests completed; the property was never exercised")
	}
	// The aggregate means must agree too (same stamps, same arithmetic).
	m, err := MeasureServiceCtx(context.Background(), topo, sc)
	if err != nil {
		t.Fatal(err)
	}
	if sum := m.MeanQueue + m.MeanNetOut + m.MeanServer + m.MeanNetBack; !approxEq(sum, m.MeanLatency) {
		t.Errorf("mean breakdown %.6f != mean latency %.6f", sum, m.MeanLatency)
	}
}

func approxEq(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

// TestServiceDeterminismPerSeed: the same configuration and seed produce
// identical measurements run to run (run under -race in CI: the rig is
// single-threaded per point by construction).
func TestServiceDeterminismPerSeed(t *testing.T) {
	topo := mustTorus(t)
	for _, seed := range []int64{1, 7, 42} {
		sc := svcConfig()
		sc.Seed = seed
		sc.HotspotSkew = 0.3
		sc.Burst = &BurstConfig{MeanOn: 10, MeanOff: 30}
		first, err := MeasureServiceCtx(context.Background(), topo, sc)
		if err != nil {
			t.Fatal(err)
		}
		again, err := MeasureServiceCtx(context.Background(), topo, sc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Errorf("seed %d: runs differ:\n%+v\nvs\n%+v", seed, first, again)
		}
	}
	// Different seeds should not coincide (they draw different traffic).
	a, err := MeasureServiceCtx(context.Background(), topo, svcConfig())
	if err != nil {
		t.Fatal(err)
	}
	sc := svcConfig()
	sc.Seed = 99
	b, err := MeasureServiceCtx(context.Background(), topo, sc)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, b) {
		t.Error("seeds 3 and 99 produced identical measurements")
	}
}

// TestServiceHotspotShape: skewing requests toward one server must raise
// the server-side p99 over the uniform placement — the queueing-theory
// shape the S-2 ablation plots.
func TestServiceHotspotShape(t *testing.T) {
	topo := mustTorus(t)
	base := ServiceMeasureConfig{
		Router:      RouterDeflection,
		Servers:     4,
		ArrivalRate: 0.02,
		ThinkTime:   10,
		Measure:     6000,
		Seed:        3,
	}
	uniform := base
	uniform.HotspotSkew = 0
	skewed := base
	skewed.HotspotSkew = 0.9
	mu, err := MeasureServiceCtx(context.Background(), topo, uniform)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := MeasureServiceCtx(context.Background(), topo, skewed)
	if err != nil {
		t.Fatal(err)
	}
	if ms.P99Server <= mu.P99Server {
		t.Errorf("hotspot skew 0.9 p99 server %.0f <= uniform %.0f; skew should pile work on one server",
			ms.P99Server, mu.P99Server)
	}
}

// TestServiceValidation: impossible service configurations are rejected
// with the reason named.
func TestServiceValidation(t *testing.T) {
	topo := mustTorus(t)
	ctx := context.Background()
	for name, mut := range map[string]func(*ServiceMeasureConfig){
		"no-servers":   func(sc *ServiceMeasureConfig) { sc.Servers = 0 },
		"all-servers":  func(sc *ServiceMeasureConfig) { sc.Servers = 16 },
		"bad-rate":     func(sc *ServiceMeasureConfig) { sc.ArrivalRate = 1.5 },
		"bad-skew":     func(sc *ServiceMeasureConfig) { sc.HotspotSkew = -0.1 },
		"neg-think":    func(sc *ServiceMeasureConfig) { sc.ThinkTime = -1 },
		"zero-measure": func(sc *ServiceMeasureConfig) { sc.Measure = 0 },
	} {
		sc := svcConfig()
		mut(&sc)
		if _, err := MeasureServiceCtx(ctx, topo, sc); err == nil {
			t.Errorf("%s: accepted %+v", name, sc)
		}
	}
}
