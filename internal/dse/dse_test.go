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
	o := DefaultOptions(60)
	n := len(o.Cores) * len(o.CachesKB) * len(o.Policies)
	if n != 168 {
		t.Fatalf("default sweep has %d points, paper ran 168", n)
	}
}

// TestFig6FullIsPaperGrid: medea-experiments -fig 6|7 -full is the
// paper's 168-point 60x60 sweep (what the retired medea-dse ran).
func TestFig6FullIsPaperGrid(t *testing.T) {
	if got, want := Fig6Options(Full), DefaultOptions(60); !reflect.DeepEqual(got, want) {
		t.Errorf("Fig6Options(Full) = %+v, want DefaultOptions(60) = %+v", got, want)
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
	pts := []Point{
		{AreaMM2: 2, Speedup: 1, Label: "a"},
		{AreaMM2: 3, Speedup: 0.5, Label: "dominated"}, // slower and bigger
		{AreaMM2: 4, Speedup: 3, Label: "b"},
		{AreaMM2: 4, Speedup: 2, Label: "equal-area-slower"},
		{AreaMM2: 6, Speedup: 2.5, Label: "dominated2"},
		{AreaMM2: 8, Speedup: 5, Label: "c"},
	}
	front := ParetoFront(pts)
	if len(front) != 3 {
		t.Fatalf("front: %+v", front)
	}
	for i, want := range []string{"a", "b", "c"} {
		if front[i].Label != want {
			t.Errorf("front[%d] = %s, want %s", i, front[i].Label, want)
		}
	}
}

func TestKillRuleKnee(t *testing.T) {
	// Speedup grows superlinearly to point 2, then sublinearly: the knee
	// is index 2.
	front := []Point{
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

func TestSmallSweepAndTables(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in short mode")
	}
	o := Options{
		N:        16,
		Cores:    []int{2, 4},
		CachesKB: []int{2, 8},
		Policies: []cache.Policy{cache.WriteBack},
		Variant:  jacobi.HybridFull,
		Warmup:   1,
		Measured: 1,
	}
	pts, err := SweepCtx(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("%d points", len(pts))
	}
	for _, p := range pts {
		if p.CyclesPerIter <= 0 || p.AreaMM2 <= 0 || p.Speedup <= 0 {
			t.Errorf("bad point %+v", p)
		}
	}
	tbl := Fig6Table(pts, "test")
	if !strings.Contains(tbl, "2kB$WB") || !strings.Contains(tbl, "8kB$WB") {
		t.Errorf("table missing columns:\n%s", tbl)
	}
	front := ParetoFront(pts)
	pt := ParetoTable(front, KillRuleKnee(front), "pareto")
	if !strings.Contains(pt, "P_") {
		t.Errorf("pareto table missing labels:\n%s", pt)
	}
	csv := PointsCSV(pts)
	if len(strings.Split(strings.TrimSpace(csv), "\n")) != 5 {
		t.Errorf("csv rows wrong:\n%s", csv)
	}
}

func TestCompareSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("compare in short mode")
	}
	rows, err := CompareCtx(context.Background(), 16, []int{2, 4}, 8, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
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
	o := Options{
		N: 16, Cores: []int{3}, CachesKB: []int{4},
		Policies: []cache.Policy{cache.WriteBack},
		Variant:  jacobi.HybridFull, Warmup: 1, Measured: 1,
	}
	a, err := SweepCtx(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SweepCtx(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if a[0].CyclesPerIter != b[0].CyclesPerIter {
		t.Fatalf("sweep not deterministic: %d vs %d", a[0].CyclesPerIter, b[0].CyclesPerIter)
	}
}
