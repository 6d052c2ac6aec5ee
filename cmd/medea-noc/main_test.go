package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/noc"
	"repro/internal/trace"
)

// TestPatternFlagAcceptsAllNames pins the CLI contract: every pattern the
// library defines resolves through the shared noc.ParsePattern (the old
// four-name local parser is gone).
func TestPatternFlagAcceptsAllNames(t *testing.T) {
	for _, name := range noc.PatternNames() {
		if _, err := noc.ParsePattern(name); err != nil {
			t.Errorf("ParsePattern(%q): %v", name, err)
		}
	}
	if _, err := noc.ParsePattern("x"); err == nil {
		t.Error("bad pattern accepted")
	}
}

// TestRouterFlagAcceptsAllNames does the same for the router axis.
func TestRouterFlagAcceptsAllNames(t *testing.T) {
	for _, name := range noc.RouterNames() {
		var out strings.Builder
		if err := run(context.Background(), []string{"-router", name, "-loads", "0.1", "-cycles", "200"}, &out); err != nil {
			t.Errorf("-router %s: %v", name, err)
		}
		if !strings.Contains(out.String(), name+" router") {
			t.Errorf("-router %s: header does not name the router:\n%s", name, out.String())
		}
	}
}

// TestRateValidation pins the -loads fix: negative, zero, >1, non-finite
// (strconv.ParseFloat reads "NaN" and "Inf") and non-numeric offered loads
// must be rejected with a usage error instead of silently simulating
// garbage.
func TestRateValidation(t *testing.T) {
	for _, bad := range []string{"-0.2", "0", "1.5", "0.2,2.0", "abc", "0.5x", "", "0.3,,0.4",
		"NaN", "0.1,nan", "+Inf", "-Inf", "-0"} {
		var out strings.Builder
		err := run(context.Background(), []string{"-loads", bad, "-cycles", "100"}, &out)
		if err == nil {
			t.Errorf("-loads %q accepted; want a usage error", bad)
			continue
		}
		if !strings.Contains(err.Error(), "load") {
			t.Errorf("-loads %q: error %q does not mention the load", bad, err)
		}
	}
	// The happy path still works, including whitespace.
	var out strings.Builder
	if err := run(context.Background(), []string{"-loads", " 0.05, 0.1 ", "-cycles", "100"}, &out); err != nil {
		t.Errorf("valid -loads rejected: %v", err)
	}
}

func TestCLIErrors(t *testing.T) {
	cases := [][]string{
		{"-w", "1"},          // degenerate torus
		{"-pattern", "nope"}, // unknown pattern
		{"-router", "nope"},  // unknown router
		{"-hotspot", "99"},   // hotspot off the grid
		{"-cycles", "0"},     // empty measurement window
		{"-burst-on", "5"},   // burst-off missing (< 1 cycle)
		{"-pattern", "shuffle", "-w", "3", "-h", "3"}, // bit pattern needs pow2 nodes
		{"positional"}, // stray argument

		// Durations the flag parser reads but no burst can have.
		{"-burst-on", "NaN", "-burst-off", "5"},
		{"-burst-on", "5", "-burst-off", "+Inf"},
	}
	for _, args := range cases {
		var out strings.Builder
		if err := run(context.Background(), args, &out); err == nil {
			t.Errorf("args %v accepted; want error", args)
		}
	}
}

// TestTopologyFlag pins the -topo contract: every defined topology runs
// at a size legal for all kinds, the header names the fabric, and
// invalid -topo/size combinations are usage errors, mirroring the -loads
// validation.
func TestTopologyFlag(t *testing.T) {
	for _, name := range noc.TopologyNames() {
		var out strings.Builder
		if err := run(context.Background(), []string{"-topo", name, "-w", "4", "-h", "4", "-loads", "0.1", "-cycles", "200"}, &out); err != nil {
			t.Errorf("-topo %s: %v", name, err)
			continue
		}
		if !strings.Contains(out.String(), name) {
			t.Errorf("-topo %s: header does not name the topology:\n%s", name, out.String())
		}
	}
	bad := [][]string{
		{"-topo", "nope"},                                          // unknown topology
		{"-topo", "mesh", "-w", "1", "-h", "8"},                    // 1xN mesh line
		{"-topo", "mesh", "-w", "8", "-h", "1"},                    // Nx1 mesh line
		{"-topo", "cmesh", "-w", "5", "-h", "4"},                   // width not divisible by the tile
		{"-topo", "cmesh", "-w", "4", "-h", "6.5"},                 // non-integer size
		{"-topo", "cmesh", "-w", "2", "-h", "2"},                   // switch grid would be 1x1
		{"-topo", "cmesh", "-hotspot", "70", "-w", "8", "-h", "8"}, // hotspot past the 64 endpoints
	}
	for _, args := range bad {
		var out strings.Builder
		if err := run(context.Background(), append(args, "-cycles", "100"), &out); err == nil {
			t.Errorf("args %v accepted; want a usage error", args)
		}
	}
	// cmesh addresses endpoints, not switches: hotspot 63 is the last
	// endpoint of an 8x8 grid even though there are only 16 switches.
	var out strings.Builder
	if err := run(context.Background(), []string{"-topo", "cmesh", "-w", "8", "-h", "8", "-hotspot", "63", "-pattern", "hotspot", "-loads", "0.05", "-cycles", "200"}, &out); err != nil {
		t.Errorf("cmesh hotspot on last endpoint rejected: %v", err)
	}
}

func TestMeasureRouterProducesSaneRow(t *testing.T) {
	topo, _ := noc.NewTopology(4, 4)
	r, err := measureRouter(context.Background(), topo, noc.RouterDeflection, trafficCfg(noc.Uniform, 0, 0.2, nil), 2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if r.throughput <= 0 || r.throughput > 1 {
		t.Errorf("throughput %v out of range", r.throughput)
	}
	if r.latency <= 0 {
		t.Errorf("latency %v", r.latency)
	}
	// At 0.2 offered load the network is far from saturation: delivered
	// must track offered within ~20%.
	if r.throughput < 0.16 {
		t.Errorf("throughput %v far below offered 0.2", r.throughput)
	}
	if r.peakBuf != 0 {
		t.Errorf("deflection router reported %d buffered flits", r.peakBuf)
	}
}

func TestMeasureRouterBursty(t *testing.T) {
	topo, _ := noc.NewTopology(4, 4)
	burst := &noc.BurstConfig{MeanOn: 25, MeanOff: 75}
	full, err := measureRouter(context.Background(), topo, noc.RouterDeflection, trafficCfg(noc.Uniform, 0, 0.2, nil), 4000, 7)
	if err != nil {
		t.Fatal(err)
	}
	gated, err := measureRouter(context.Background(), topo, noc.RouterDeflection, trafficCfg(noc.Uniform, 0, 0.2, burst), 4000, 7)
	if err != nil {
		t.Fatal(err)
	}
	ratio := gated.throughput / full.throughput
	if ratio < 0.15 || ratio > 0.40 {
		t.Errorf("bursty/steady throughput ratio %.3f, want ~0.25", ratio)
	}
}

func TestMeasureXYProducesSaneRow(t *testing.T) {
	topo, _ := noc.NewTopology(4, 4)
	r, err := measureRouter(context.Background(), topo, noc.RouterXY, trafficCfg(noc.Uniform, 0, 0.2, nil), 2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if r.latency <= 0 || r.throughput <= 0 || r.peakBuf < 1 {
		t.Errorf("bad xy row: lat=%v thr=%v peak=%d", r.latency, r.throughput, r.peakBuf)
	}
}

func TestCSVOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.csv")
	var out strings.Builder
	if err := run(context.Background(), []string{"-loads", "0.1", "-cycles", "300", "-router", "wormhole", "-csv", path}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "load,router,") {
		t.Errorf("unexpected CSV header: %s", data)
	}
	if !strings.Contains(string(data), "wormhole") {
		t.Errorf("CSV does not name the router: %s", data)
	}
}

// TestRecordFlag: -record captures a single run to a decodable trace
// whose header carries the run's provenance, and the single-run
// constraints (one load, no -xy) are enforced.
func TestRecordFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.trace")
	var out strings.Builder
	err := run(context.Background(), []string{"-pattern", "tornado", "-loads", "0.2", "-cycles", "400",
		"-seed", "9", "-record", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Load(path)
	if err != nil {
		t.Fatalf("recorded trace does not decode: %v", err)
	}
	if len(tr.Events) == 0 {
		t.Fatal("recorded trace holds no events")
	}
	h := tr.Header
	if h.Width != 4 || h.Height != 4 || h.Topology != "torus" ||
		h.Router != "deflection" || h.Pattern != "tornado" ||
		h.Rate != 0.2 || h.Seed != 9 || h.Measure != 400 {
		t.Errorf("header does not carry the run's provenance: %+v", h)
	}
	for _, args := range [][]string{
		{"-loads", "0.1,0.2", "-record", path},    // one load only
		{"-xy", "-loads", "0.1", "-record", path}, // one router only
	} {
		var sb strings.Builder
		if err := run(context.Background(), args, &sb); err == nil {
			t.Errorf("args %v accepted; want error", args)
		}
	}
}
