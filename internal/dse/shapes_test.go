package dse

import (
	"context"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/jacobi"
)

// The shape-regression tests assert the qualitative properties of the
// paper's figures (DESIGN.md §4 "shape criteria"). They run real
// simulations and are skipped in -short mode.

func runPoint(t *testing.T, n, cores, kb int, pol cache.Policy) int64 {
	t.Helper()
	cfg := core.DefaultConfig(cores, kb, pol)
	res, err := jacobi.RunCtx(context.Background(), cfg, jacobi.Spec{N: n, Warmup: 1, Measured: 1}, jacobi.HybridFull)
	if err != nil {
		t.Fatal(err)
	}
	return res.CyclesPerIteration
}

// compareRows runs the three variants on a 60x60 array at one cache size
// (the T-1/T-2 sweep) and pairs them into rows.
func compareRows(t *testing.T, cores []int, cacheKB int) []CompareRow {
	t.Helper()
	pts, err := KernelSweepCtx(context.Background(), comparisonSweep(cores, cacheKB))
	if err != nil {
		t.Fatal(err)
	}
	return CompareRows(pts)
}

// TestShapeFig6WriteThroughWorse: the WT policy must be substantially
// slower than WB once several cores generate store traffic.
func TestShapeFig6WriteThroughWorse(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy shape test")
	}
	for _, cores := range []int{4, 10} {
		wb := runPoint(t, 60, cores, 16, cache.WriteBack)
		wt := runPoint(t, 60, cores, 16, cache.WriteThrough)
		if wt < 2*wb {
			t.Errorf("%d cores: WT %d not >= 2x WB %d", cores, wt, wb)
		}
	}
}

// TestShapeFig6CacheKnee: with per-core data fitting in the cache, adding
// cores must keep reducing iteration time; with tiny caches the curve must
// be miss-dominated (no comparable scaling).
func TestShapeFig6CacheKnee(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy shape test")
	}
	big4 := runPoint(t, 60, 4, 32, cache.WriteBack)
	big8 := runPoint(t, 60, 8, 32, cache.WriteBack)
	big12 := runPoint(t, 60, 12, 32, cache.WriteBack)
	if !(big12 < big8 && big8 < big4) {
		t.Errorf("no core scaling with ample cache: %d, %d, %d", big4, big8, big12)
	}
	small4 := runPoint(t, 60, 4, 2, cache.WriteBack)
	small12 := runPoint(t, 60, 12, 2, cache.WriteBack)
	// Miss-dominated: scaling must be far from the ~3x the big caches get.
	if float64(small4)/float64(small12) > 1.7 {
		t.Errorf("2 kB caches scale too well: %d -> %d", small4, small12)
	}
	// And the fitting cache must beat the tiny cache outright.
	if big12 >= small12 {
		t.Errorf("32 kB (%d) not faster than 2 kB (%d) at 12 cores", big12, small12)
	}
}

// TestShapeFig8KneeShifts: the 30x30 array is 4x smaller, so the cache
// size where scaling appears must be ~4x smaller than for 60x60 (4 kB vs
// 16 kB in the paper).
func TestShapeFig8KneeShifts(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy shape test")
	}
	// At 8 cores, 4 kB must already fit the 30x30 per-core data (and so
	// perform close to 16 kB), while for 60x60 it must not.
	small30 := runPoint(t, 30, 8, 4, cache.WriteBack)
	big30 := runPoint(t, 30, 8, 16, cache.WriteBack)
	if float64(small30) > 1.3*float64(big30) {
		t.Errorf("30x30 at 8 cores: 4 kB (%d) should be within 30%% of 16 kB (%d)", small30, big30)
	}
	small60 := runPoint(t, 60, 8, 4, cache.WriteBack)
	big60 := runPoint(t, 60, 8, 16, cache.WriteBack)
	if small60 < 2*big60 {
		t.Errorf("60x60 at 8 cores: 4 kB (%d) should be >= 2x slower than 16 kB (%d)", small60, big60)
	}
}

// TestShapeHybridAdvantage asserts T-1: hybrid >= ~2x pure-SM once the
// per-core data fits, and the gap grows with core count.
func TestShapeHybridAdvantage(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy shape test")
	}
	rows := compareRows(t, []int{4, 10}, 16)
	if rows[0].FullVsSM < 1.5 {
		t.Errorf("4 cores: hybrid advantage %.2fx < 1.5x", rows[0].FullVsSM)
	}
	if rows[1].FullVsSM < 3 {
		t.Errorf("10 cores: hybrid advantage %.2fx < 3x", rows[1].FullVsSM)
	}
	if rows[1].FullVsSM <= rows[0].FullVsSM {
		t.Errorf("hybrid advantage not growing with cores: %.2fx -> %.2fx",
			rows[0].FullVsSM, rows[1].FullVsSM)
	}
}

// TestShapeSyncOnlyTracksFullWhenMissBound asserts the first half of T-2:
// in the miss-dominated regime (2 kB) the sync-only hybrid is within
// ~2-20% of the full hybrid.
func TestShapeSyncOnlyTracksFullWhenMissBound(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy shape test")
	}
	rows := compareRows(t, []int{6}, 2)
	if r := rows[0].FullVsSync; r > 1.35 {
		t.Errorf("miss-bound full-vs-sync = %.2fx, want <= ~1.2x", r)
	}
}

// TestShapeParetoKnees asserts Figure 7's structure: a Pareto front whose
// speedup jumps when the per-core data first fits in cache, and a
// kill-rule knee inside the sweep.
func TestShapeParetoKnees(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy shape test")
	}
	pts, err := KernelSweepCtx(context.Background(), Fig6Options(Quick))
	if err != nil {
		t.Fatal(err)
	}
	front := ParetoFront(pts)
	if len(front) < 4 {
		t.Fatalf("pareto front too small: %d points", len(front))
	}
	knee := KillRuleKnee(front)
	if knee <= 0 {
		t.Fatalf("kill-rule knee at %d", knee)
	}
	if front[len(front)-1].Speedup < 10 {
		t.Errorf("max speedup %.1fx implausibly small", front[len(front)-1].Speedup)
	}
	// The front must contain a big jump (the cache-fit lower knee).
	jump := 0.0
	for i := 1; i < len(front); i++ {
		if r := front[i].Speedup / front[i-1].Speedup; r > jump {
			jump = r
		}
	}
	if jump < 1.5 {
		t.Errorf("no cache-fit knee on the front (max step %.2fx)", jump)
	}
}
