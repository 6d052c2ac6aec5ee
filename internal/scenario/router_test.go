package scenario

import (
	"context"
	"testing"

	"repro/internal/noc"
)

// loadRouterAblation runs the shipped router-ablation scenario once per
// test binary (the sweep is 20 simulations).
func loadRouterAblation(t *testing.T) []Result {
	t.Helper()
	s, err := Load("../../examples/scenarios/router-ablation.json")
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunCtx(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != s.NumPoints() {
		t.Fatalf("got %d results, scenario declares %d points", len(results), s.NumPoints())
	}
	return results
}

func pick(t *testing.T, results []Result, router string, rate float64) Result {
	t.Helper()
	for _, r := range results {
		if r.Router == router && r.Rate == rate {
			return r
		}
	}
	t.Fatalf("no result for router %s at rate %g", router, rate)
	return Result{}
}

// TestRouterAblationOrdering is the acceptance check for the router axis:
// the shipped router-ablation.json must reproduce the R-1 orderings, not
// just print them. The scenario is deterministic (pinned seed), so these
// are exact comparisons, not tolerances.
func TestRouterAblationOrdering(t *testing.T) {
	results := loadRouterAblation(t)
	const low, high = 0.05, 0.9

	// Zero-load latency: the bufferless deflection router undercuts both
	// buffered routers (no buffer-write pipeline stage), and the buffered
	// wormhole pays the highest latency of all four.
	dLow := pick(t, results, "deflection", low)
	aLow := pick(t, results, "adaptive", low)
	xLow := pick(t, results, "xy", low)
	wLow := pick(t, results, "wormhole", low)
	if !(dLow.MeanLatency < xLow.MeanLatency && dLow.MeanLatency < wLow.MeanLatency) {
		t.Errorf("deflection zero-load latency %.3f not below buffered routers (xy %.3f, wormhole %.3f)",
			dLow.MeanLatency, xLow.MeanLatency, wLow.MeanLatency)
	}
	for _, r := range []Result{dLow, aLow, xLow} {
		if r.MeanLatency >= wLow.MeanLatency {
			t.Errorf("%s latency %.3f not below wormhole's buffered-pipeline %.3f at low load",
				r.Router, r.MeanLatency, wLow.MeanLatency)
		}
	}

	// Past saturation: the wormhole VC router sustains the highest
	// buffered-router throughput (XY's single queue per input suffers
	// head-of-line blocking that 2 VCs relieve), while the bufferless
	// routers — the paper's thesis — beat both on this adversarial
	// pattern.
	dHigh := pick(t, results, "deflection", high)
	aHigh := pick(t, results, "adaptive", high)
	xHigh := pick(t, results, "xy", high)
	wHigh := pick(t, results, "wormhole", high)
	if !(wHigh.Throughput > xHigh.Throughput) {
		t.Errorf("wormhole throughput %.4f not above xy %.4f past saturation",
			wHigh.Throughput, xHigh.Throughput)
	}
	if !(dHigh.Throughput > wHigh.Throughput && aHigh.Throughput > wHigh.Throughput) {
		t.Errorf("bufferless routers (%.4f, %.4f) should out-deliver wormhole (%.4f) on transpose",
			dHigh.Throughput, aHigh.Throughput, wHigh.Throughput)
	}

	// Storage cost: bufferless means zero, wormhole stays bounded by its
	// credit-managed VC buffers, XY's unbounded queues explode.
	for _, r := range []Result{dHigh, aHigh} {
		if r.PeakBuffer != 0 {
			t.Errorf("%s reported %d buffered flits; bufferless routers store nothing", r.Router, r.PeakBuffer)
		}
	}
	maxWormhole := int(noc.NumPorts)*noc.WormholeVCs*noc.WormholeVCDepth + noc.WormholeVCDepth
	if wHigh.PeakBuffer <= 0 || wHigh.PeakBuffer > maxWormhole {
		t.Errorf("wormhole peak buffer %d outside (0, %d]", wHigh.PeakBuffer, maxWormhole)
	}
	if xHigh.PeakBuffer <= wHigh.PeakBuffer {
		t.Errorf("xy unbounded queues (peak %d) should exceed wormhole's bounded %d",
			xHigh.PeakBuffer, wHigh.PeakBuffer)
	}
}
