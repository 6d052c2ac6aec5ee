package dse

import (
	"context"
	"strings"
	"testing"

	"repro/internal/jacobi"
)

func TestParseKernelRoundTrip(t *testing.T) {
	for _, k := range AllKernels() {
		got, err := ParseKernel(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKernel(%q) = %v, %v", k.String(), got, err)
		}
		if got, err := ParseKernel("  " + strings.ToUpper(k.String()) + " "); err != nil || got != k {
			t.Errorf("ParseKernel upper(%q) = %v, %v", k, got, err)
		}
	}
	if got, err := ParseKernel("1"); err != nil || got != KernelMatmul {
		t.Errorf("ParseKernel(1) = %v, %v", got, err)
	}
	for _, bad := range []string{"", "fft", "99", "-1"} {
		if _, err := ParseKernel(bad); err == nil {
			t.Errorf("ParseKernel(%q) accepted", bad)
		}
	}
}

func TestKernelSupports(t *testing.T) {
	for _, k := range AllKernels() {
		for _, v := range jacobi.AllVariants() {
			want := !(k == KernelSyncbench && v == jacobi.HybridSync)
			if got := k.Supports(v); got != want {
				t.Errorf("%v.Supports(%v) = %t, want %t", k, v, got, want)
			}
		}
	}
}

func TestKernelSweepValidation(t *testing.T) {
	base := KernelOptions{Kernel: KernelJacobi, N: 16, Cores: []int{2}, CachesKB: []int{8}}
	if _, err := KernelSweepCtx(context.Background(), base); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*KernelOptions)
	}{
		{"no cores", func(o *KernelOptions) { o.Cores = nil }},
		{"no caches", func(o *KernelOptions) { o.CachesKB = nil }},
		{"no N", func(o *KernelOptions) { o.N = 0 }},
		{"syncbench hybrid-sync", func(o *KernelOptions) {
			o.Kernel = KernelSyncbench
			o.N = 0
			o.Variants = []jacobi.Variant{jacobi.HybridSync}
		}},
	}
	for _, c := range cases {
		o := base
		c.mutate(&o)
		if _, err := KernelSweepCtx(context.Background(), o); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestKernelAblationShapes asserts the K-1 reproduction targets on a
// reduced grid: the message-passing model beats pure shared memory on
// every kernel once past two cores, the gap widens with cores, and the
// message barrier never occupies the memory node.
func TestKernelAblationShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the kernel ablation grid")
	}
	var points []KernelPoint
	var o KernelOptions
	for _, k := range AllKernels() {
		o = K1Options(k)
		o.Cores = []int{2, 6, 12}
		pts, err := KernelSweepCtx(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		points = append(points, pts...)
	}
	if len(points) != 3*2*3 {
		t.Fatalf("got %d points, want 18", len(points))
	}

	cycles := map[[3]int]int64{} // kernel, variant, cores
	for _, p := range points {
		cycles[[3]int{int(p.Kernel), int(p.Variant), p.Compute}] = p.Cycles
		if p.Kernel == KernelSyncbench && p.Variant == jacobi.HybridFull && p.MPMMUBusy != 0 {
			t.Errorf("message barrier at %d cores occupied the memory node for %d cycles",
				p.Compute, p.MPMMUBusy)
		}
	}
	for _, k := range AllKernels() {
		for _, cores := range []int{6, 12} {
			mp := cycles[[3]int{int(k), int(jacobi.HybridFull), cores}]
			sm := cycles[[3]int{int(k), int(jacobi.PureSM), cores}]
			if sm <= mp {
				t.Errorf("%v at %d cores: pure-sm (%d) not slower than hybrid-full (%d)", k, cores, sm, mp)
			}
		}
		ratioAt := func(cores int) float64 {
			mp := cycles[[3]int{int(k), int(jacobi.HybridFull), cores}]
			sm := cycles[[3]int{int(k), int(jacobi.PureSM), cores}]
			return float64(sm) / float64(mp)
		}
		if ratioAt(12) <= ratioAt(2) {
			t.Errorf("%v: sm/mp ratio did not widen with cores (%.2f at 2 -> %.2f at 12)",
				k, ratioAt(2), ratioAt(12))
		}
	}

	adv := MessagingAdvantageByKernel(points)
	if adv[KernelSyncbench] <= adv[KernelMatmul] {
		t.Errorf("syncbench advantage %.2f not above matmul %.2f (bare synchronization is where messages win most)",
			adv[KernelSyncbench], adv[KernelMatmul])
	}
	peak := PeakSpeedupByKernel(points)
	if peak[KernelJacobi] <= peak[KernelMatmul] {
		t.Errorf("jacobi peak speedup %.2f not above matmul %.2f", peak[KernelJacobi], peak[KernelMatmul])
	}

	table := KernelAblationTable(o, points)
	for _, want := range []string{"K-1", "jacobi", "matmul", "syncbench", "pure-sm", "summary"} {
		if !strings.Contains(table, want) {
			t.Errorf("ablation table missing %q:\n%s", want, table)
		}
	}
}

// TestKernelSweepDeterministic: kernel runs take no seed, so the whole
// sweep must be bit-identical across executions and parallelism levels.
func TestKernelSweepDeterministic(t *testing.T) {
	o := KernelOptions{
		Kernel:   KernelMatmul,
		N:        8,
		Cores:    []int{2, 3},
		CachesKB: []int{4},
		Variants: []jacobi.Variant{jacobi.HybridFull, jacobi.PureSM},
	}
	a, err := KernelSweepCtx(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	o.Parallelism = 1
	b, err := KernelSweepCtx(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("point %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
