package jacobi

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/bridge"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/pe"
	"repro/internal/sim"
)

// TestArchitectureAblations pins the architecture ablations A-2 to A-6 of
// DESIGN.md's experiment index: the core.Config knobs that no scenario
// axis reaches, each swept over one Jacobi configuration. Every point's
// cycles per iteration (one warm-up, one measured iteration) is exact, so
// any drift in simulated behaviour shows here beside the 94177 golden,
// and each ablation asserts the shape it claims on its points.
func TestArchitectureAblations(t *testing.T) {
	type point struct {
		label  string
		set    func(*core.Config)
		cycles int64
	}
	arbiter := func(m bridge.ArbiterMode) func(*core.Config) { return func(c *core.Config) { c.Arbiter = m } }
	mmuCache := func(kb int) func(*core.Config) { return func(c *core.Config) { c.MPMMUCacheKB = kb } }
	ways := func(w int) func(*core.Config) { return func(c *core.Config) { c.CacheWays = w } }
	mmus := func(m int) func(*core.Config) { return func(c *core.Config) { c.NumMPMMUs = m } }
	cycles := func(res []Result) []int64 {
		out := make([]int64, len(res))
		for i, r := range res {
			out[i] = r.CyclesPerIteration
		}
		return out
	}
	for _, a := range []struct {
		id             string
		cores, cacheKB int
		n              int
		variant        Variant
		points         []point
		// shape checks the ablation's claim on its points' results.
		shape func(t *testing.T, res []Result)
	}{
		{
			// The three NoC-access arbiters of §II-B tie: they differ only
			// in the order they take flits from the TIE port and the bridge
			// when both have one queued, and no kernel ever queues both
			// (TestArbiterSourcesNeverContend).
			id: "A-2 arbiters", cores: 6, cacheKB: 8, n: 30, variant: HybridFull,
			points: []point{
				{"mux", arbiter(bridge.ArbMux), 14101},
				{"single-fifo", arbiter(bridge.ArbSingleFIFO), 14101},
				{"dual-fifo", arbiter(bridge.ArbDualFIFO), 14101},
			},
			shape: func(t *testing.T, res []Result) {
				for _, r := range res[1:] {
					if r.TotalCycles != res[0].TotalCycles || r.NoCFlits != res[0].NoCFlits {
						t.Errorf("%v: %d cycles, %d flits; mux: %d, %d", r.Cfg.Arbiter, r.TotalCycles, r.NoCFlits, res[0].TotalCycles, res[0].NoCFlits)
					}
				}
			},
		},
		{
			// The paper's cheaper core without the Multiply High option:
			// 60-cycle multiplies against 26 slow every iteration.
			id: "A-3 cost model", cores: 4, cacheKB: 16, n: 30, variant: HybridFull,
			points: []point{
				{"mul-high-26cy", func(*core.Config) {}, 19251},
				{"no-mul-high-60cy", func(c *core.Config) { c.Cost = pe.MulHighOff() }, 25915},
			},
			shape: func(t *testing.T, res []Result) {
				if c := cycles(res); c[1] <= c[0] {
					t.Errorf("60-cycle multiplies (%d) not slower than 26-cycle (%d)", c[1], c[0])
				}
			},
		},
		{
			// The MPMMU's cache in front of DDR, under pure shared memory:
			// 4 kB misses the working set, 32 kB (the default) holds it and
			// 128 kB adds nothing.
			id: "A-4 MPMMU cache", cores: 6, cacheKB: 16, n: 60, variant: PureSM,
			points: []point{
				{"4kB", mmuCache(4), 194451},
				{"32kB", mmuCache(32), 184340},
				{"128kB", mmuCache(128), 184340},
			},
			shape: func(t *testing.T, res []Result) {
				if c := cycles(res); !(c[0] > c[1] && c[1] == c[2]) {
					t.Errorf("cycles %v: want 4 kB slower than 32 kB, and 128 kB equal to 32 kB", c)
				}
			},
		},
		{
			// L1 associativity at the same 8 kB: 2-way LRU removes the
			// conflict misses between the two grids and is fastest, but
			// 4-way misses more often than direct-mapped: each core sweeps
			// about 11.5 kB (two grids of 12 rows of 60 doubles) in a loop
			// through 8 kB, and LRU over a loop larger than the cache evicts
			// each line just before its next use, the more surely the more
			// ways a set has (cache.TestLRULoopThrashes).
			id: "A-5 associativity", cores: 6, cacheKB: 8, n: 60, variant: HybridFull,
			points: []point{
				{"1-way", ways(1), 555286},
				{"2-way", ways(2), 324637},
				{"4-way", ways(4), 416734},
			},
			shape: func(t *testing.T, res []Result) {
				miss := make([]string, len(res))
				for i, r := range res {
					miss[i] = fmt.Sprintf("%.2f", 100*r.MissRate)
				}
				if want := [...]string{"20.71", "19.20", "21.90"}; [3]string(miss) != want {
					t.Errorf("miss rates %v %%, recorded %v", miss, want)
				}
				c := cycles(res)
				if !(c[1] < c[2] && c[2] < c[0]) || !(res[1].MissRate < res[0].MissRate && res[0].MissRate < res[2].MissRate) {
					t.Errorf("cycles %v, miss rates %v %%: want 2-way fastest with the fewest misses, and 4-way missing more than direct-mapped", c, miss)
				}
			},
		},
		{
			// Memory nodes ("no limitations in the number of MPMMUs"):
			// interleaving shared lines over 1, 2 and 4 MPMMUs relieves the
			// pure shared-memory model's serialization at every step.
			id: "A-6 MPMMUs", cores: 8, cacheKB: 16, n: 60, variant: PureSM,
			points: []point{
				{"1-mmu", mmus(1), 182962},
				{"2-mmu", mmus(2), 114224},
				{"4-mmu", mmus(4), 98617},
			},
			shape: func(t *testing.T, res []Result) {
				if c := cycles(res); !(c[0] > c[1] && c[1] > c[2]) {
					t.Errorf("cycles %v: want fewer with every MPMMU added", c)
				}
			},
		},
	} {
		t.Run(a.id, func(t *testing.T) {
			res := make([]Result, len(a.points))
			for i, p := range a.points {
				cfg := core.DefaultConfig(a.cores, a.cacheKB, cache.WriteBack)
				p.set(&cfg)
				r, err := RunCtx(context.Background(), cfg, Spec{N: a.n, Warmup: 1, Measured: 1}, a.variant)
				if err != nil {
					t.Fatalf("%s: %v", p.label, err)
				}
				if r.CyclesPerIteration != p.cycles {
					t.Errorf("%s: %d cycles/iter, recorded %d", p.label, r.CyclesPerIteration, p.cycles)
				}
				res[i] = r
			}
			a.shape(t, res)
		})
	}
}

// sourceWatch is a probe on the engine that counts the cycles on which
// some core has a flit queued at both of its arbiter's sources, the TIE
// port and the bridge, after every node has stepped.
type sourceWatch struct {
	procs []*pe.Proc
	both  int64
}

func (w *sourceWatch) Name() string { return "source-watch" }

func (w *sourceWatch) Step(int64) {
	for _, p := range w.procs {
		if p.Port.Out().Len() > 0 && p.Bridge.Out().Len() > 0 {
			w.both++
			return
		}
	}
}

// TestArbiterSourcesNeverContend explains A-2's tie: on the A-2
// configuration, in both programming models and under both write
// policies, no core ever has a message flit and a shared-memory flit
// waiting for the injection port at once, so the arbiter, which only
// orders two waiting sources, never decides anything. (The probe steps
// every cycle, which turns off fast-forward; the cycle counts must not
// move.)
func TestArbiterSourcesNeverContend(t *testing.T) {
	for _, v := range []Variant{HybridFull, PureSM} {
		for _, pol := range []cache.Policy{cache.WriteBack, cache.WriteThrough} {
			w := &sourceWatch{}
			cfg := core.DefaultConfig(6, 8, pol)
			res, err := RunCtx(context.Background(), cfg, Spec{N: 30, Warmup: 1, Measured: 1}, v,
				WithSystemHook(func(s *core.System) error {
					w.procs = s.Procs
					s.Engine.Register(sim.PhaseNode, w)
					return nil
				}))
			if err != nil {
				t.Fatal(err)
			}
			if res.NoCFlits == 0 {
				t.Fatalf("%v %v: no flits", v, pol)
			}
			if w.both != 0 {
				t.Errorf("%v %v: %d cycles with both arbiter sources queued", v, pol, w.both)
			}
		}
	}
}
