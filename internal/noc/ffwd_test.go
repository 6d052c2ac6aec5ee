package noc

import (
	"context"
	"sync"
	"testing"

	"repro/internal/sim"
)

// lowLoadConfig is the fast-forward showcase: a trickle of uniform
// traffic leaves the fabric idle for long stretches between injections.
func lowLoadConfig() MeasureConfig {
	return MeasureConfig{
		Router:  RouterDeflection,
		Traffic: TrafficConfig{Pattern: Uniform, Rate: 0.002},
		Warmup:  500,
		Measure: 20_000,
		Seed:    42,
	}
}

// TestMeasureFastForwardDifferential requires every router kind to
// measure bit-identically with fast-forward on and off, across load
// levels that exercise both the skipping and the always-busy regimes.
func TestMeasureFastForwardDifferential(t *testing.T) {
	t.Parallel()
	topo := mustKind(t, TopoTorus, 4, 4)
	offCtx := sim.WithoutFastForward(context.Background())
	for _, router := range AllRouters() {
		for _, rate := range []float64{0.002, 0.1} {
			mc := lowLoadConfig()
			mc.Router = router
			mc.Traffic.Rate = rate
			mc.Measure = 5_000

			on := mustMeasure(t, topo, mc)
			off, err := MeasureCtx(offCtx, topo, mc)
			if err != nil {
				t.Fatal(err)
			}

			if off.CyclesSkipped != 0 {
				t.Errorf("%v rate %g: CyclesSkipped = %d with fast-forward disabled", router, rate, off.CyclesSkipped)
			}
			on.CyclesSkipped, off.CyclesSkipped = 0, 0
			if on != off {
				t.Errorf("%v rate %g: results diverge under fast-forward:\n  on:  %+v\n  off: %+v", router, rate, on, off)
			}
		}
	}
}

// TestFastForwardIsPerRun measures one low-load point twice at the same
// time, once under sim.WithoutFastForward: the setting belongs to the run
// whose context carries it, so the concurrent run beside it still skips.
func TestFastForwardIsPerRun(t *testing.T) {
	t.Parallel()
	topo := mustKind(t, TopoTorus, 4, 4)
	mc := lowLoadConfig()
	var on, off Measurement
	var onErr, offErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		on, onErr = MeasureCtx(context.Background(), topo, mc)
	}()
	go func() {
		defer wg.Done()
		off, offErr = MeasureCtx(sim.WithoutFastForward(context.Background()), topo, mc)
	}()
	wg.Wait()
	if onErr != nil || offErr != nil {
		t.Fatal(onErr, offErr)
	}
	if off.CyclesSkipped != 0 || on.CyclesSkipped <= 0 {
		t.Errorf("CyclesSkipped = %d with fast-forward off, %d with it on; want 0 and > 0", off.CyclesSkipped, on.CyclesSkipped)
	}
	on.CyclesSkipped, off.CyclesSkipped = 0, 0
	if on != off {
		t.Errorf("results diverge:\n  on:  %+v\n  off: %+v", on, off)
	}
}

// TestMeasureFastForwardEngagesAtLowLoad asserts the optimization
// actually fires where it should: a near-idle fabric must skip most of
// its cycles.
func TestMeasureFastForwardEngagesAtLowLoad(t *testing.T) {
	topo := mustKind(t, TopoTorus, 4, 4)
	m := mustMeasure(t, topo, lowLoadConfig())
	if m.CyclesSkipped <= m.Cycles/2 {
		t.Errorf("CyclesSkipped = %d of %d measured cycles; expected a mostly-skipped window at rate %g",
			m.CyclesSkipped, m.Cycles, lowLoadConfig().Traffic.Rate)
	}
	if m.Delivered == 0 {
		t.Error("no traffic delivered; the test load is degenerate")
	}
}

// TestMeasureWindowsForkDifferential requires warm-snapshot forking to be
// invisible: measuring several windows off one shared warmup must equal
// independent simulations of each window, byte for byte, for every
// router kind (the stateful wormhole and XY switches are the hard cases).
func TestMeasureWindowsForkDifferential(t *testing.T) {
	windows := []int64{1_000, 3_000, 5_000}
	for _, kind := range []TopologyKind{TopoTorus, TopoMesh, TopoCMesh} {
		topo, err := NewTopologyOfKind(kind, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, router := range AllRouters() {
			for _, burst := range []*BurstConfig{nil, {MeanOn: 8, MeanOff: 40}} {
				mc := MeasureConfig{
					Router:  router,
					Traffic: TrafficConfig{Pattern: Uniform, Rate: 0.05, Burst: burst},
					Warmup:  2_000,
					Seed:    7,
				}
				forked, err := (*Schedules)(nil).MeasureWindowsCtx(context.Background(), topo, mc, windows)
				if err != nil {
					t.Fatalf("%v/%v forked: %v", kind, router, err)
				}
				for i, w := range windows {
					wmc := mc
					wmc.Measure = w
					f, ind := forked[i], mustMeasure(t, topo, wmc)
					f.CyclesSkipped, ind.CyclesSkipped = 0, 0
					if f != ind {
						t.Errorf("%v/%v burst=%v window %d: fork diverges:\n  forked:      %+v\n  independent: %+v",
							kind, router, burst != nil, windows[i], f, ind)
					}
				}
			}
		}
	}
}

func mustMeasure(t *testing.T, topo Topology, mc MeasureConfig) Measurement {
	t.Helper()
	m, err := MeasureCtx(context.Background(), topo, mc)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
