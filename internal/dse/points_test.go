package dse

import (
	"context"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/jacobi"
)

func pointsTestOptions() KernelOptions {
	o := smallJacobi([]int{2, 4}, []int{4, 8})
	o.Policies = []cache.Policy{cache.WriteBack, cache.WriteThrough}
	return o
}

// TestSweepPointsValidation: malformed filters fail before any simulation.
func TestSweepPointsValidation(t *testing.T) {
	for _, tc := range []struct {
		points  []int
		wantSub string
	}{
		{[]int{3, 1}, "increasing"},
		{[]int{2, 2}, "increasing"},
		{[]int{0, 99}, "outside"},
		{[]int{-1}, "increasing"}, // -1 <= prev(-1) trips the order check first
	} {
		o := pointsTestOptions()
		o.Points = tc.points
		_, err := KernelSweepCtx(context.Background(), o)
		if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("Points=%v: err = %v, want mention of %q", tc.points, err, tc.wantSub)
		}
	}
}

// TestKernelSweepPointsFilter covers the kernel-grid variant of the
// filter: global indices spanning variant series map onto the right
// per-variant jobs.
func TestKernelSweepPointsFilter(t *testing.T) {
	o := KernelOptions{
		Kernel:   KernelJacobi,
		N:        16,
		Cores:    []int{2, 4},
		CachesKB: []int{4},
		Policies: []cache.Policy{cache.WriteBack},
		Variants: []jacobi.Variant{jacobi.HybridFull, jacobi.PureSM},
		Warmup:   1,
		Measured: 1,
	}
	full, err := KernelSweepCtx(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 4 {
		t.Fatalf("full kernel sweep has %d points, want 4", len(full))
	}
	// One index in each variant's series.
	o.Points = []int{1, 2}
	sub, err := KernelSweepCtx(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(sub) != 2 {
		t.Fatalf("filtered kernel sweep returned %d points", len(sub))
	}
	for i, p := range o.Points {
		want := full[p]
		want.Speedup = 0
		if sub[i] != want {
			t.Errorf("kernel point %d: filtered %+v, full-sweep %+v", p, sub[i], want)
		}
	}
}
