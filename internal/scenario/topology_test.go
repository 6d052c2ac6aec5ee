package scenario

import (
	"context"
	"testing"
)

// loadTopologyAblation runs the shipped topology-ablation scenario (the
// sweep is 15 simulations).
func loadTopologyAblation(t *testing.T) []Result {
	t.Helper()
	s, err := Load("../../examples/scenarios/topology-ablation.json")
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

func pickTopo(t *testing.T, results []Result, topo string, rate float64) Result {
	t.Helper()
	for _, r := range results {
		if r.Topology == topo && r.Rate == rate {
			return r
		}
	}
	t.Fatalf("no result for topology %s at rate %g", topo, rate)
	return Result{}
}

// satThroughput reduces a fabric's points to its saturation throughput.
func satThroughput(results []Result, topo string) float64 {
	best := 0.0
	for _, r := range results {
		if r.Topology == topo && r.Throughput > best {
			best = r.Throughput
		}
	}
	return best
}

// TestTopologyAblationOrdering is the acceptance check for the topology
// axis: the shipped topology-ablation.json must reproduce the T-3
// orderings, not just print them. The scenario is deterministic (pinned
// seed), so these are exact comparisons, not tolerances.
func TestTopologyAblationOrdering(t *testing.T) {
	results := loadTopologyAblation(t)

	// Saturation throughput: the torus's wrap links halve the average
	// distance and double the bisection, so it out-delivers the mesh; the
	// cmesh shares each switch between four endpoints and saturates
	// lowest of all.
	torusSat := satThroughput(results, "torus")
	meshSat := satThroughput(results, "mesh")
	cmeshSat := satThroughput(results, "cmesh")
	if !(torusSat >= meshSat) {
		t.Errorf("torus saturation %.4f below mesh %.4f", torusSat, meshSat)
	}
	if !(meshSat > cmeshSat) {
		t.Errorf("mesh saturation %.4f not above cmesh %.4f (concentration should cost bisection)",
			meshSat, cmeshSat)
	}

	// Mesh corner-deflection penalty: without wrap links, edge and corner
	// switches deflect inward-bound traffic more often, which shows up in
	// average latency at every offered load.
	for _, rate := range []float64{0.05, 0.15, 0.3} {
		torus := pickTopo(t, results, "torus", rate)
		mesh := pickTopo(t, results, "mesh", rate)
		if !(mesh.MeanLatency > torus.MeanLatency) {
			t.Errorf("rate %g: mesh latency %.3f not above torus %.3f (corner-deflection penalty missing)",
				rate, mesh.MeanLatency, torus.MeanLatency)
		}
	}
	// The same penalty in deflection cost, at mid load where the mesh is
	// still below saturation but its edges already hurt.
	torusMid := pickTopo(t, results, "torus", 0.3)
	meshMid := pickTopo(t, results, "mesh", 0.3)
	if !(meshMid.DeflectionRate > torusMid.DeflectionRate) {
		t.Errorf("rate 0.3: mesh deflection rate %.4f not above torus %.4f",
			meshMid.DeflectionRate, torusMid.DeflectionRate)
	}

	// The deflection router stays bufferless on every fabric.
	for _, r := range results {
		if r.PeakBuffer != 0 {
			t.Errorf("%s at rate %g reported %d buffered flits; the deflection router stores nothing",
				r.Topology, r.Rate, r.PeakBuffer)
		}
	}
}

// TestTopologySweepValidation pins the per-topology scenario validation:
// a pattern legal on one listed fabric but not another must be rejected
// at load time, as must invalid topology/size combinations.
func TestTopologySweepValidation(t *testing.T) {
	cases := []struct {
		name string
		json string
		ok   bool
	}{
		{"all kinds, uniform", `{"workload":"noc-synthetic","noc":{"width":8,"height":8,"patterns":["uniform"],"topologies":["torus","mesh","cmesh"],"rates":[0.1]}}`, true},
		{"unknown topology", `{"workload":"noc-synthetic","noc":{"width":8,"height":8,"patterns":["uniform"],"topologies":["hypercube"],"rates":[0.1]}}`, false},
		{"duplicate topology", `{"workload":"noc-synthetic","noc":{"width":8,"height":8,"patterns":["uniform"],"topologies":["mesh","mesh"],"rates":[0.1]}}`, false},
		{"cmesh odd size", `{"workload":"noc-synthetic","noc":{"width":5,"height":4,"patterns":["uniform"],"topologies":["cmesh"],"rates":[0.1]}}`, false},
		{"cmesh too small", `{"workload":"noc-synthetic","noc":{"width":2,"height":2,"patterns":["uniform"],"topologies":["cmesh"],"rates":[0.1]}}`, false},
		{"transpose on non-square grid", `{"workload":"noc-synthetic","noc":{"width":4,"height":3,"patterns":["transpose"],"topologies":["mesh"],"rates":[0.1]}}`, false},
		{"torus default still works", `{"workload":"noc-synthetic","noc":{"width":4,"height":4,"patterns":["transpose"],"rates":[0.1]}}`, true},
	}
	for _, c := range cases {
		_, err := Parse([]byte(c.json))
		if c.ok && err != nil {
			t.Errorf("%s: rejected: %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: accepted; want error", c.name)
		}
	}
	// NumPoints multiplies the topology axis in.
	s, err := Parse([]byte(`{"workload":"noc-synthetic","noc":{"width":8,"height":8,"patterns":["uniform","hotspot"],"topologies":["torus","mesh","cmesh"],"routers":["deflection","xy"],"rates":[0.1,0.2]},"seeds":[1]}`))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.NumPoints(), 3*2*2*2*1; got != want {
		t.Errorf("NumPoints = %d, want %d", got, want)
	}
}
