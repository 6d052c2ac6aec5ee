package dse

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/cache"
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

// Fig6Options returns the exact sweep options behind Figure 6 at the
// given fidelity, so other drivers (e.g. the scenario runner's golden
// tests) can reproduce the figure numbers from a single source of truth.
func Fig6Options(f Fidelity) Options {
	o := DefaultOptions(60)
	o.Cores = coresFor(f)
	o.CachesKB = cachesFor(f)
	return o
}

// Fig8Options returns the exact sweep options behind Figure 8 at the
// given fidelity.
func Fig8Options(f Fidelity) Options {
	o := DefaultOptions(30)
	o.Cores = coresFor(f)
	o.Policies = []cache.Policy{cache.WriteBack}
	if f == Full {
		o.CachesKB = []int{2, 4, 8, 16, 32}
	} else {
		o.CachesKB = []int{2, 4, 16, 32}
	}
	return o
}

// Fig6Ctx reproduces Figure 6: execution time for a 60x60 array varying
// the number of cores, the cache size and the cache policy. It returns the
// rendered table and the raw points (which Fig7 reuses). At most
// parallelism simulations run at a time (0 = GOMAXPROCS), as in every
// experiment below.
func Fig6Ctx(ctx context.Context, f Fidelity, parallelism int) (string, []Point, error) {
	o := Fig6Options(f)
	o.Parallelism = parallelism
	pts, err := SweepCtx(ctx, o)
	if err != nil {
		return "", nil, fmt.Errorf("fig6: %w", err)
	}
	return Fig6Table(pts, Fig6Title), pts, nil
}

// Fig6Title and Fig8Title caption the execution-time tables. Exported so
// the sharded driver in cmd/medea-experiments renders merged results with
// the exact captions of the single-process path.
const (
	Fig6Title = "Fig. 6 — Execution time (cycles/iteration), 60x60 array"
	Fig8Title = "Fig. 8 — Execution time (cycles/iteration), 30x30 array, write-back"
)

// Fig7 reproduces Figure 7: optimal speedup and corresponding
// configuration versus chip area for the 60x60 array, from the Fig. 6
// sweep points.
func Fig7(points []Point) string {
	front := ParetoFront(points)
	knee := KillRuleKnee(front)
	return ParetoTable(front, knee, "Fig. 7 — Optimal speedup vs chip area, 60x60 array")
}

// Fig8Ctx reproduces Figure 8: execution time for a 30x30 array,
// write-back caches only, 2-32 kB.
func Fig8Ctx(ctx context.Context, f Fidelity, parallelism int) (string, []Point, error) {
	o := Fig8Options(f)
	o.Parallelism = parallelism
	pts, err := SweepCtx(ctx, o)
	if err != nil {
		return "", nil, fmt.Errorf("fig8: %w", err)
	}
	return Fig6Table(pts, Fig8Title), pts, nil
}

// Fig9 reproduces Figure 9: optimal speedup versus chip area for the
// 30x30 array, from the Fig. 8 sweep points (write-back, as the labelled
// optimal configurations in the paper all are).
func Fig9(points []Point) string {
	front := ParetoFront(points)
	knee := KillRuleKnee(front)
	return ParetoTable(front, knee, "Fig. 9 — Optimal speedup vs chip area, 30x30 array")
}

// HybridComparisonCtx reproduces the prose analysis of Section III (T-1
// and T-2 in DESIGN.md): the three programming-model variants on a 60x60
// array with 16 kB caches across core counts, reporting the pure-SM/hybrid
// and sync-only ratios.
func HybridComparisonCtx(ctx context.Context, f Fidelity, parallelism int) (string, []CompareRow, error) {
	cores := []int{2, 4, 6, 8, 10}
	if f == Full {
		cores = []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	}
	rows, err := CompareCtx(ctx, 60, cores, 16, 1, 1, parallelism)
	if err != nil {
		return "", nil, fmt.Errorf("hybrid comparison: %w", err)
	}
	return CompareTable(rows,
		"Hybrid vs shared-memory (60x60, 16 kB WB): paper reports 2x below the knee, up to >5x at 10 cores"), rows, nil
}

// SmallCacheComparisonCtx runs the variant comparison in the
// miss-dominated regime (2 kB caches), where the paper reports the
// sync-only hybrid within 2-20% of the full hybrid.
func SmallCacheComparisonCtx(ctx context.Context, f Fidelity, parallelism int) (string, []CompareRow, error) {
	cores := []int{2, 6, 10}
	if f == Full {
		cores = []int{2, 4, 6, 8, 10, 12}
	}
	rows, err := CompareCtx(ctx, 60, cores, 2, 1, 1, parallelism)
	if err != nil {
		return "", nil, fmt.Errorf("small-cache comparison: %w", err)
	}
	return CompareTable(rows,
		"Miss-dominated regime (60x60, 2 kB WB): sync-only hybrid should track the full hybrid within 2-20%"), rows, nil
}

// AllExperimentsCtx renders every figure and comparison at the given
// fidelity, in paper order. A canceled context stops the in-flight sweep
// and returns its error, discarding the partial report.
func AllExperimentsCtx(ctx context.Context, f Fidelity, parallelism int) (string, error) {
	var b strings.Builder
	t6, p6, err := Fig6Ctx(ctx, f, parallelism)
	if err != nil {
		return "", err
	}
	b.WriteString(t6)
	b.WriteString("\n")
	b.WriteString(Fig7(p6))
	b.WriteString("\n")
	t8, p8, err := Fig8Ctx(ctx, f, parallelism)
	if err != nil {
		return "", err
	}
	b.WriteString(t8)
	b.WriteString("\n")
	b.WriteString(Fig9(p8))
	b.WriteString("\n")
	th, _, err := HybridComparisonCtx(ctx, f, parallelism)
	if err != nil {
		return "", err
	}
	b.WriteString(th)
	b.WriteString("\n")
	ts, _, err := SmallCacheComparisonCtx(ctx, f, parallelism)
	if err != nil {
		return "", err
	}
	b.WriteString(ts)
	return b.String(), nil
}
