package dse

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/jacobi"
)

func TestPaperGridIs168Points(t *testing.T) {
	o := Fig6Options(Full)
	n := len(o.Cores) * len(o.CachesKB) * len(o.Policies) * len(o.Variants)
	if n != 168 {
		t.Fatalf("full Fig. 6 sweep has %d points, paper ran 168", n)
	}
}

// TestFig6FullIsPaperGrid: Fig6Options(Full), the sweep of
// examples/figures/fig6-full.json, is the paper's 168-point 60x60 sweep
// (what the retired medea-dse ran).
func TestFig6FullIsPaperGrid(t *testing.T) {
	want := KernelOptions{
		Kernel:   KernelJacobi,
		N:        60,
		Cores:    PaperCores(),
		CachesKB: PaperCaches(),
		Policies: []cache.Policy{cache.WriteBack, cache.WriteThrough},
		Variants: []jacobi.Variant{jacobi.HybridFull},
		Warmup:   1,
		Measured: 1,
	}
	if got := Fig6Options(Full); !reflect.DeepEqual(got, want) {
		t.Errorf("Fig6Options(Full) = %+v, want %+v", got, want)
	}
}

func TestAreaModelCalibration(t *testing.T) {
	// The 168 configurations must span roughly the 2-22 mm2 x-axis of
	// Figures 7/9.
	min := Area(2, 2, 32)
	max := Area(15, 64, 32)
	if min < 1 || min > 4 {
		t.Errorf("smallest config area %.2f outside 1-4 mm2", min)
	}
	if max < 18 || max > 45 {
		t.Errorf("largest config area %.2f outside 18-45 mm2", max)
	}
	// Monotonicity.
	if Area(5, 8, 32) >= Area(6, 8, 32) {
		t.Error("area must grow with cores")
	}
	if Area(5, 8, 32) >= Area(5, 16, 32) {
		t.Error("area must grow with cache")
	}
}

func TestAttachSpeedup(t *testing.T) {
	pts := []KernelPoint{
		{Compute: 2, CacheKB: 2, Cycles: 1000, AreaMM2: 2},
		{Compute: 4, CacheKB: 2, Cycles: 500, AreaMM2: 4},
		{Compute: 8, CacheKB: 2, Cycles: 200, AreaMM2: 8},
	}
	AttachKernelSpeedup(pts)
	if pts[0].Speedup != 1 {
		t.Errorf("base speedup %v, want 1", pts[0].Speedup)
	}
	if pts[1].Speedup != 2 || pts[2].Speedup != 5 {
		t.Errorf("speedups %v %v", pts[1].Speedup, pts[2].Speedup)
	}
}

func TestParetoFront(t *testing.T) {
	// Compute numbers the points; 0 marks the ones that must be pruned.
	pts := []KernelPoint{
		{AreaMM2: 2, Speedup: 1, Compute: 1},
		{AreaMM2: 3, Speedup: 0.5}, // slower and bigger
		{AreaMM2: 4, Speedup: 3, Compute: 2},
		{AreaMM2: 4, Speedup: 2}, // equal area, slower
		{AreaMM2: 6, Speedup: 2.5},
		{AreaMM2: 8, Speedup: 5, Compute: 3},
	}
	front := ParetoFront(pts)
	if len(front) != 3 {
		t.Fatalf("front: %+v", front)
	}
	for i, p := range front {
		if p.Compute != i+1 {
			t.Errorf("front[%d] = %+v, want point %d", i, p, i+1)
		}
	}
}

func TestKillRuleKnee(t *testing.T) {
	// Speedup grows superlinearly to point 2, then sublinearly: the knee
	// is index 2.
	front := []KernelPoint{
		{AreaMM2: 2, Speedup: 1},
		{AreaMM2: 3, Speedup: 2},   // +100% perf for +50% area: keep
		{AreaMM2: 4, Speedup: 3},   // +50% perf for +33% area: keep
		{AreaMM2: 8, Speedup: 3.5}, // +17% perf for +100% area: kill
		{AreaMM2: 12, Speedup: 3.6},
	}
	if knee := KillRuleKnee(front); knee != 2 {
		t.Errorf("knee = %d, want 2", knee)
	}
	if KillRuleKnee(nil) != -1 {
		t.Error("empty front should return -1")
	}
}

// smallJacobi is a cheap 16x16 jacobi grid at one write-back cache size.
func smallJacobi(cores, cachesKB []int) KernelOptions {
	return KernelOptions{
		Kernel:   KernelJacobi,
		N:        16,
		Cores:    cores,
		CachesKB: cachesKB,
		Policies: []cache.Policy{cache.WriteBack},
		Warmup:   1,
		Measured: 1,
	}
}

func TestSmallSweepAndTables(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in short mode")
	}
	pts, err := KernelSweepCtx(context.Background(), smallJacobi([]int{2, 4}, []int{2, 8}))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("%d points", len(pts))
	}
	for _, p := range pts {
		if p.Cycles <= 0 || p.AreaMM2 <= 0 || p.Speedup <= 0 {
			t.Errorf("bad point %+v", p)
		}
	}
	tbl := Fig6Table(pts, "test")
	if !strings.Contains(tbl, "2kB$WB") || !strings.Contains(tbl, "8kB$WB") {
		t.Errorf("table missing columns:\n%s", tbl)
	}
	front := ParetoFront(pts)
	pt := ParetoTable(front, KillRuleKnee(front), "pareto")
	if !strings.Contains(pt, "2P_2k$") {
		t.Errorf("pareto table missing labels:\n%s", pt)
	}
}

func TestCompareSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("compare in short mode")
	}
	o := smallJacobi([]int{2, 4}, []int{8})
	o.Variants = []jacobi.Variant{jacobi.HybridFull, jacobi.HybridSync, jacobi.PureSM}
	pts, err := KernelSweepCtx(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	rows := CompareRows(pts)
	if len(rows) != 2 || rows[0].Compute != 2 || rows[1].Compute != 4 {
		t.Fatalf("rows %+v, want one per core count in sweep order", rows)
	}
	for _, r := range rows {
		if r.HybridFull <= 0 || r.HybridSync <= 0 || r.PureSM <= 0 {
			t.Errorf("bad row %+v", r)
		}
		if r.FullVsSM < 1 {
			t.Errorf("hybrid slower than pure SM at %d cores: %+v", r.Compute, r)
		}
	}
	tbl := CompareTable(rows, "cmp")
	if !strings.Contains(tbl, "pure-sm") {
		t.Errorf("compare table malformed:\n%s", tbl)
	}
}

func TestSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in short mode")
	}
	o := smallJacobi([]int{3}, []int{4})
	a, err := KernelSweepCtx(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := KernelSweepCtx(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if a[0].Cycles != b[0].Cycles {
		t.Fatalf("sweep not deterministic: %d vs %d", a[0].Cycles, b[0].Cycles)
	}
}
