// Package dse drives the design-space exploration of the paper's Section
// III: sweeps over core count, cache size and write policy (168
// configurations), the chip-area model, Pareto pruning and the kill-rule
// analysis that together produce Figures 6-9.
package dse

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/jacobi"
	"repro/internal/resultcache"
)

// defaultParallelism is the sweep concurrency applied when an Options
// leaves Parallelism at 0. It is itself 0 by default, which par.Sweep
// resolves to runtime.GOMAXPROCS(0) — cmd/medea-experiments exposes it as
// -parallelism, mirroring cmd/medea-scenarios (which threads the flag
// through Scenario.Parallelism instead).
var defaultParallelism atomic.Int64

// SetDefaultParallelism caps concurrent simulations for every sweep whose
// Options leave Parallelism unset (0 restores the GOMAXPROCS default).
func SetDefaultParallelism(n int) { defaultParallelism.Store(int64(n)) }

// DefaultParallelism returns the package-wide default sweep concurrency
// (0 = GOMAXPROCS).
func DefaultParallelism() int { return int(defaultParallelism.Load()) }

// parallelismOr resolves an Options.Parallelism against the package
// default.
func parallelismOr(n int) int {
	if n != 0 {
		return n
	}
	return DefaultParallelism()
}

// Point is one evaluated design-space configuration.
type Point struct {
	Compute int // compute cores (the MPMMU is one additional node)
	CacheKB int
	Policy  cache.Policy

	CyclesPerIter int64
	MissRate      float64
	AreaMM2       float64
	Speedup       float64 // relative to the smallest-area configuration
	Label         string  // paper-style "11P_16k$" label

	// MPMMUBusy and NoCFlits quantify where the communication went: memory-
	// node occupancy versus message-path traffic (the paper's hybrid
	// argument). The kernel sweeps carry them into KernelPoint.
	MPMMUBusy int64
	NoCFlits  int64

	// CyclesSkipped counts cycles the engine fast-forwarded over while
	// simulating this point. A pure performance counter: it is 0 when the
	// point was recalled from the result cache, and it never enters a
	// table, CSV, JSON row or cache value — measured figures are
	// byte-identical whatever it holds.
	CyclesSkipped int64
}

// Options parameterizes a sweep.
type Options struct {
	N        int // grid size (16, 30 or 60)
	Cores    []int
	CachesKB []int
	Policies []cache.Policy
	Variant  jacobi.Variant
	Warmup   int
	Measured int
	// Parallelism bounds concurrent simulations (each simulation itself
	// is deterministic and single-threaded); 0 means GOMAXPROCS.
	Parallelism int
	// Cache, when non-nil, content-addresses each point's simulation
	// result: a repeated point is served from the store instead of
	// resimulated, and concurrent evaluations of the same point collapse
	// to one run. nil means cache off; results are byte-identical either
	// way (the differential battery in internal/scenario enforces this).
	Cache *resultcache.Cache
	// Points, when non-nil, restricts the sweep to the listed indices of
	// the canonical (policy, cache, cores) job order — the shard layer's
	// hook. Indices must be strictly increasing and in range; the result
	// slice follows Points order. Speedup is NOT attached (it is a
	// cross-point figure the merger recomputes over the full grid), so a
	// Points sweep over every index differs from a full sweep only in the
	// zero Speedup column.
	Points []int
}

// PaperCores returns the paper's compute-core range: 2..15 (3..16 total
// nodes counting the MPMMU).
func PaperCores() []int {
	var out []int
	for c := 2; c <= 15; c++ {
		out = append(out, c)
	}
	return out
}

// PaperCaches returns the paper's cache sizes in kB: powers of two from 2
// to 64.
func PaperCaches() []int { return []int{2, 4, 8, 16, 32, 64} }

// DefaultOptions returns the full 168-point sweep of the paper for grid
// size n: 14 core counts x 6 cache sizes x 2 write policies.
func DefaultOptions(n int) Options {
	return Options{
		N:        n,
		Cores:    PaperCores(),
		CachesKB: PaperCaches(),
		Policies: []cache.Policy{cache.WriteBack, cache.WriteThrough},
		Variant:  jacobi.HybridFull,
		Warmup:   1,
		Measured: 1,
	}
}

// SweepCtx evaluates every configuration of the jacobi design space and
// returns the points sorted by (policy, cache, cores): the jacobi arm of
// KernelSweepCtx for the one variant, projected onto the figure schema.
// Runs execute concurrently; each simulation is independently
// deterministic, so the result set is reproducible. A canceled context
// stops dispatching new points, interrupts in-flight simulations, and
// returns the context's error (wrapped in a par.CanceledError recording
// how many points had finished). A panic inside one point is isolated to
// that point and surfaces as a *par.PanicError instead of crashing the
// sweep.
func SweepCtx(ctx context.Context, o Options) ([]Point, error) {
	kps, err := KernelSweepCtx(ctx, KernelOptions{
		Kernel:      KernelJacobi,
		N:           o.N,
		Cores:       o.Cores,
		CachesKB:    o.CachesKB,
		Policies:    o.Policies,
		Variants:    []jacobi.Variant{o.Variant},
		Warmup:      o.Warmup,
		Measured:    o.Measured,
		Parallelism: o.Parallelism,
		Cache:       o.Cache,
		Points:      o.Points,
	})
	if err != nil {
		return nil, err
	}
	points := make([]Point, len(kps))
	for i, p := range kps {
		points[i] = Point{
			Compute: p.Compute, CacheKB: p.CacheKB, Policy: p.Policy,
			CyclesPerIter: p.Cycles,
			MissRate:      p.MissRate,
			AreaMM2:       p.AreaMM2,
			Speedup:       p.Speedup,
			Label:         fmt.Sprintf("%dP_%dk$", p.Compute, p.CacheKB),
			MPMMUBusy:     p.MPMMUBusy,
			NoCFlits:      p.NoCFlits,
			CyclesSkipped: p.CyclesSkipped,
		}
	}
	return points, nil
}

// ParetoFront returns the points that are not Pareto-dominated (no other
// point has smaller-or-equal area and strictly higher speedup), sorted by
// increasing area. Among equal-area points only the fastest survives.
func ParetoFront(points []Point) []Point {
	sorted := append([]Point(nil), points...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].AreaMM2 != sorted[j].AreaMM2 {
			return sorted[i].AreaMM2 < sorted[j].AreaMM2
		}
		return sorted[i].Speedup > sorted[j].Speedup
	})
	var front []Point
	best := -1.0
	for _, p := range sorted {
		if p.Speedup > best {
			front = append(front, p)
			best = p.Speedup
		}
	}
	return front
}

// KillRuleKnee applies the paper's "kill if less than linear" rule ([19])
// to a Pareto front: walking up the front, a step is worth taking only if
// the relative performance gain is at least the relative area increase.
// It returns the index (into front) of the last configuration that still
// satisfies the rule — the paper's optimal design point.
func KillRuleKnee(front []Point) int {
	if len(front) == 0 {
		return -1
	}
	knee := 0
	for i := 1; i < len(front); i++ {
		prev, cur := front[knee], front[i]
		dPerf := (cur.Speedup - prev.Speedup) / prev.Speedup
		dArea := (cur.AreaMM2 - prev.AreaMM2) / prev.AreaMM2
		if dArea <= 0 || dPerf >= dArea {
			knee = i
		}
	}
	return knee
}
