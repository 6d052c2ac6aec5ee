package dse

import (
	"repro/internal/cache"
	"repro/internal/jacobi"
)

// Experiment fidelity: Quick keeps the qualitative shape with a reduced
// grid so CI and benchmarks stay fast; Full is the paper's exact 168-point
// sweep.
type Fidelity int

const (
	// Quick uses a reduced core/cache grid (shape-preserving).
	Quick Fidelity = iota
	// Full is the paper's complete parameter grid.
	Full
)

func coresFor(f Fidelity) []int {
	if f == Full {
		return PaperCores()
	}
	return []int{2, 4, 6, 8, 10, 12, 15}
}

func cachesFor(f Fidelity) []int {
	if f == Full {
		return PaperCaches()
	}
	return []int{2, 8, 16, 64}
}

// jacobiSweep is the one-iteration jacobi sweep every figure and
// comparison runs: write-back only and hybrid-full unless the caller
// widens those axes.
func jacobiSweep(n int, cores, cachesKB []int) KernelOptions {
	return KernelOptions{
		Kernel:   KernelJacobi,
		N:        n,
		Cores:    cores,
		CachesKB: cachesKB,
		Policies: []cache.Policy{cache.WriteBack},
		Variants: []jacobi.Variant{jacobi.HybridFull},
		Warmup:   1,
		Measured: 1,
	}
}

// Fig6Options returns the sweep behind Figures 6 and 7 (60x60 array,
// both write policies) at the given fidelity; at Full it is the paper's
// 168-point grid.
func Fig6Options(f Fidelity) KernelOptions {
	o := jacobiSweep(60, coresFor(f), cachesFor(f))
	o.Policies = []cache.Policy{cache.WriteBack, cache.WriteThrough}
	return o
}

// Fig8Options returns the sweep behind Figures 8 and 9 (30x30 array,
// write-back caches of 2-32 kB) at the given fidelity.
// examples/scenarios/fig8-quick.json is Fig8Options(Quick) as a file.
func Fig8Options(f Fidelity) KernelOptions {
	caches := []int{2, 4, 16, 32}
	if f == Full {
		caches = []int{2, 4, 8, 16, 32}
	}
	return jacobiSweep(30, coresFor(f), caches)
}

// Captions of the execution-time tables (Fig6Table).
const (
	Fig6Title = "Fig. 6 — Execution time (cycles/iteration), 60x60 array"
	Fig8Title = "Fig. 8 — Execution time (cycles/iteration), 30x30 array, write-back"
)

// Fig7 reproduces Figure 7: optimal speedup and corresponding
// configuration versus chip area for the 60x60 array, from the Fig. 6
// sweep points.
func Fig7(points []KernelPoint) string {
	front := ParetoFront(points)
	return ParetoTable(front, KillRuleKnee(front), "Fig. 7 — Optimal speedup vs chip area, 60x60 array")
}

// Fig9 reproduces Figure 9: optimal speedup versus chip area for the
// 30x30 array, from the Fig. 8 sweep points (write-back, as the labelled
// optimal configurations in the paper all are).
func Fig9(points []KernelPoint) string {
	front := ParetoFront(points)
	return ParetoTable(front, KillRuleKnee(front), "Fig. 9 — Optimal speedup vs chip area, 30x30 array")
}

// comparisonSweep runs the three programming-model variants of jacobi on
// a 60x60 array at one write-back cache size (CompareRows pairs them).
func comparisonSweep(cores []int, cacheKB int) KernelOptions {
	o := jacobiSweep(60, cores, []int{cacheKB})
	o.Variants = []jacobi.Variant{jacobi.HybridFull, jacobi.HybridSync, jacobi.PureSM}
	return o
}

// HybridComparisonOptions returns the sweep behind the prose analysis of
// Section III (T-1 in DESIGN.md): the three variants with 16 kB caches
// across core counts, reporting the pure-SM/hybrid and sync-only ratios.
func HybridComparisonOptions(f Fidelity) KernelOptions {
	if f == Full {
		return comparisonSweep([]int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, 16)
	}
	return comparisonSweep([]int{2, 4, 6, 8, 10}, 16)
}

// SmallCacheComparisonOptions returns T-2's sweep: the variant comparison
// in the miss-dominated regime (2 kB caches), where the paper reports the
// sync-only hybrid within 2-20% of the full hybrid.
func SmallCacheComparisonOptions(f Fidelity) KernelOptions {
	if f == Full {
		return comparisonSweep([]int{2, 4, 6, 8, 10, 12}, 2)
	}
	return comparisonSweep([]int{2, 6, 10}, 2)
}

// Captions of the comparison tables (CompareTable).
const (
	HybridTitle     = "Hybrid vs shared-memory (60x60, 16 kB WB): paper reports 2x below the knee, up to >5x at 10 cores"
	SmallCacheTitle = "Miss-dominated regime (60x60, 2 kB WB): sync-only hybrid should track the full hybrid within 2-20%"
)
