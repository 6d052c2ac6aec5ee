package noc

import (
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
)

func permutationPatterns() []Pattern {
	var out []Pattern
	for _, p := range AllPatterns() {
		if p.IsPermutation() {
			out = append(out, p)
		}
	}
	return out
}

// TestPermutationPatternsBijective checks that every permutation pattern
// maps the node-id set onto itself with no collisions, on both a
// power-of-two torus and (for the coordinate patterns) a non-power-of-two
// one.
// TestPermutationPatternsBijective checks that every permutation pattern
// maps the endpoint-id set onto itself with no collisions, across all
// three topology kinds (on the cmesh the endpoint grid is 2x denser than
// the switch grid, so it exercises the endpoint-space addressing).
func TestPermutationPatternsBijective(t *testing.T) {
	topos := []Topology{
		Torus{W: 4, H: 4}, Torus{W: 8, H: 4}, Torus{W: 5, H: 3}, Torus{W: 2, H: 2},
		Mesh{W: 4, H: 4}, Mesh{W: 5, H: 3},
		CMesh{W: 4, H: 4}, CMesh{W: 8, H: 4},
	}
	for _, topo := range topos {
		ew, eh := topo.EndpointDims()
		for _, p := range permutationPatterns() {
			if err := ValidatePattern(p, topo); err != nil {
				continue // bit patterns on non-power-of-two sizes
			}
			seen := make(map[int]bool)
			for src := 0; src < topo.NumEndpoints(); src++ {
				dst := PermutationDest(p, topo, src)
				if dst < 0 || dst >= topo.NumEndpoints() {
					t.Errorf("%v on %dx%d %v: dest(%d) = %d out of range", p, ew, eh, topo.Kind(), src, dst)
				}
				if seen[dst] {
					t.Errorf("%v on %dx%d %v: dest %d hit twice", p, ew, eh, topo.Kind(), dst)
				}
				seen[dst] = true
			}
			if len(seen) != topo.NumEndpoints() {
				t.Errorf("%v on %dx%d %v: %d distinct dests, want %d", p, ew, eh, topo.Kind(), len(seen), topo.NumEndpoints())
			}
		}
	}
}

func TestValidatePattern(t *testing.T) {
	odd := Torus{W: 5, H: 3}
	for _, p := range []Pattern{BitReversal, Shuffle} {
		if err := ValidatePattern(p, odd); err == nil {
			t.Errorf("%v on 5x3 should be rejected", p)
		}
	}
	pow2 := Torus{W: 4, H: 4}
	for _, p := range AllPatterns() {
		if err := ValidatePattern(p, pow2); err != nil {
			t.Errorf("%v on 4x4: %v", p, err)
		}
	}
	if err := ValidatePattern(numPatterns, pow2); err == nil {
		t.Error("out-of-range pattern should be rejected")
	}
	// Per-topology validation: the same pattern can be legal on one kind
	// and not another at the same W x H (the cmesh endpoint grid is the
	// full W x H even though its switch grid is a quarter of it).
	if err := ValidatePattern(Transpose, Mesh{W: 4, H: 3}); err == nil {
		t.Error("transpose on a 4x3 mesh should be rejected")
	}
	for _, p := range AllPatterns() {
		if err := ValidatePattern(p, CMesh{W: 4, H: 4}); err != nil {
			t.Errorf("%v on 4x4 cmesh: %v", p, err)
		}
	}
}

func TestParsePattern(t *testing.T) {
	for _, p := range AllPatterns() {
		got, err := ParsePattern(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePattern(%q) = %v, %v", p.String(), got, err)
		}
	}
	// Aliases: case, underscores, numeric indices.
	for in, want := range map[string]Pattern{
		"Bit_Complement": BitComplement,
		"  tornado ":     Tornado,
		"0":              Uniform,
		"7":              Tornado,
	} {
		got, err := ParsePattern(in)
		if err != nil || got != want {
			t.Errorf("ParsePattern(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"x", "99", "-1", ""} {
		if _, err := ParsePattern(bad); err == nil {
			t.Errorf("ParsePattern(%q) should fail", bad)
		}
	}
}

// TestBurstModulatorDutyCycle runs the modulator standalone and checks the
// measured on fraction converges to the configured duty cycle.
func TestBurstModulatorDutyCycle(t *testing.T) {
	for _, cfg := range []BurstConfig{
		{MeanOn: 20, MeanOff: 80},
		{MeanOn: 50, MeanOff: 50},
		{MeanOn: 5, MeanOff: 45},
	} {
		b := NewBurstModulator(cfg, 42)
		const cycles = 200_000
		for i := 0; i < cycles; i++ {
			b.Step()
		}
		want := cfg.Duty()
		got := b.MeasuredDuty()
		if math.Abs(got-want) > 0.02 {
			t.Errorf("duty for %+v: measured %.4f, configured %.4f", cfg, got, want)
		}
	}
}

func TestBurstConfigValidate(t *testing.T) {
	for _, bad := range []float64{0.5, 0, math.Copysign(0, -1), -3, math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, c := range []BurstConfig{{MeanOn: bad, MeanOff: 10}, {MeanOn: 10, MeanOff: bad}} {
			if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "must be >= 1 cycle") {
				t.Errorf("%+v: got %v, want a \"must be >= 1 cycle\" error", c, err)
			}
		}
	}
	for _, c := range []BurstConfig{{MeanOn: 10, MeanOff: 10}, {MeanOn: 1, MeanOff: 1}} {
		if err := c.Validate(); err != nil {
			t.Errorf("valid config %+v rejected: %v", c, err)
		}
	}
}

// runPatternSim runs a small traffic-only simulation and returns
// (injected, delivered, total deflections) as a determinism fingerprint.
func runPatternSim(t *testing.T, p Pattern, burst *BurstConfig, seed int64) (int64, int64, int64) {
	t.Helper()
	topo, err := NewTopology(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidatePattern(p, topo); err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	n := NewNetwork(e, topo)
	for i := 0; i < topo.NumNodes(); i++ {
		tn := NewTrafficNode(i, topo, TrafficConfig{Pattern: p, Rate: 0.2, Burst: burst}, seed)
		n.Attach(i, tn)
		e.Register(sim.PhaseNode, tn)
	}
	e.Run(3000)
	return n.Stats.Injected.Value(), n.Stats.Delivered.Value(), n.TotalDeflections()
}

// TestNewPatternsDeterministicPerSeed runs each new pattern (and a bursty
// composition) twice per seed and demands identical statistics, and checks
// different seeds actually vary the random patterns.
func TestNewPatternsDeterministicPerSeed(t *testing.T) {
	type cfg struct {
		p     Pattern
		burst *BurstConfig
	}
	cases := []cfg{
		{BitComplement, nil},
		{BitReversal, nil},
		{Shuffle, nil},
		{Tornado, nil},
		{Uniform, &BurstConfig{MeanOn: 20, MeanOff: 60}},
		{Hotspot, &BurstConfig{MeanOn: 10, MeanOff: 90}},
	}
	for _, c := range cases {
		for _, seed := range []int64{1, 7} {
			i1, d1, f1 := runPatternSim(t, c.p, c.burst, seed)
			i2, d2, f2 := runPatternSim(t, c.p, c.burst, seed)
			if i1 != i2 || d1 != d2 || f1 != f2 {
				t.Errorf("%v (burst=%v) seed %d not deterministic: (%d,%d,%d) vs (%d,%d,%d)",
					c.p, c.burst, seed, i1, d1, f1, i2, d2, f2)
			}
			if d1 == 0 {
				t.Errorf("%v (burst=%v) seed %d delivered nothing", c.p, c.burst, seed)
			}
		}
		ia, _, _ := runPatternSim(t, c.p, c.burst, 1)
		ib, _, _ := runPatternSim(t, c.p, c.burst, 7)
		if ia == ib {
			t.Errorf("%v (burst=%v): seeds 1 and 7 injected identically (%d); seed is ignored?", c.p, c.burst, ia)
		}
	}
}

// TestBurstGatingReducesInjection checks the composition actually gates:
// a bursty uniform source injects roughly duty * rate of the unmodulated
// offered load.
func TestBurstGatingReducesInjection(t *testing.T) {
	full, _, _ := runPatternSim(t, Uniform, nil, 3)
	burst := &BurstConfig{MeanOn: 25, MeanOff: 75} // duty 0.25
	gated, _, _ := runPatternSim(t, Uniform, burst, 3)
	ratio := float64(gated) / float64(full)
	if ratio < 0.15 || ratio > 0.35 {
		t.Errorf("bursty/full injection ratio %.3f, want ~0.25", ratio)
	}
}
