package scenario

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dse"
)

// loadKernelAblation runs the shipped kernel-ablation scenario (36
// simulations across three kernels x two variants x six core counts).
func loadKernelAblation(t *testing.T) (*Scenario, []Result) {
	t.Helper()
	s, err := Load("../../examples/scenarios/kernel-ablation.json")
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunCtx(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != s.NumPoints() {
		t.Fatalf("got %d results, scenario declares %d points", len(results), s.NumPoints())
	}
	return s, results
}

// TestKernelAblationGolden proves the declarative path is exact for the
// workload axis, mirroring TestTopologyAblationGolden: running
// kernel-ablation.json must reproduce
// dse.KernelAblation(DefaultKernelAblationOptions()) point-for-point,
// because both delegate to dse.KernelSweepCtx.
func TestKernelAblationGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full kernel ablations")
	}
	s, results := loadKernelAblation(t)

	// The scenario file must stay in lockstep with
	// dse.DefaultKernelAblationOptions, otherwise the "reproduces K-1"
	// claim silently decays.
	want := dse.DefaultKernelAblationOptions()
	c := s.Kernel
	if c.N != want.N {
		t.Errorf("kernel-ablation.json n = %d, dse says %d", c.N, want.N)
	}
	if !reflect.DeepEqual(c.Cores, want.Cores) {
		t.Errorf("kernel-ablation.json cores = %v, dse says %v", c.Cores, want.Cores)
	}
	if !reflect.DeepEqual(c.CacheKB, []int{want.CacheKB}) {
		t.Errorf("kernel-ablation.json cache_kb = %v, dse says %v", c.CacheKB, want.CacheKB)
	}
	if c.Rounds != want.Rounds {
		t.Errorf("kernel-ablation.json rounds = %d, dse says %d", c.Rounds, want.Rounds)
	}
	if !reflect.DeepEqual(s.Workloads, []string{"jacobi", "matmul", "syncbench"}) {
		t.Errorf("kernel-ablation.json workloads = %v, want every kernel", s.Workloads)
	}
	variants, err := c.variantList()
	if err != nil || !reflect.DeepEqual(variants, want.Variants) {
		t.Errorf("kernel-ablation.json variants = %v (%v), dse says %v", variants, err, want.Variants)
	}

	points, err := dse.KernelAblationCtx(context.Background(), want)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(results) {
		t.Fatalf("scenario has %d points, dse sweep %d", len(results), len(points))
	}
	for i, p := range points {
		r := results[i]
		if r.Workload != p.Kernel.String() || r.Variant != p.Variant.String() ||
			r.Cores != p.Compute || r.CacheKB != p.CacheKB {
			t.Fatalf("point %d: scenario (%s %s %dP) vs dse (%v %v %dP): axis order diverged",
				i, r.Workload, r.Variant, r.Cores, p.Kernel, p.Variant, p.Compute)
		}
		cycles := r.CyclesPerIter
		switch p.Kernel {
		case dse.KernelMatmul:
			cycles = r.TotalCycles
		case dse.KernelSyncbench:
			cycles = r.CyclesPerRound
		}
		if cycles != p.Cycles || r.Speedup != p.Speedup {
			t.Errorf("point %d (%v %v @ %dP): scenario cycles/speedup %d/%.4f diverge from dse %d/%.4f",
				i, p.Kernel, p.Variant, p.Compute, cycles, r.Speedup, p.Cycles, p.Speedup)
		}
		if p.Kernel != dse.KernelJacobi &&
			(r.MPMMUBusy != p.MPMMUBusy || r.NoCFlits != p.NoCFlits || r.TransferCycles != p.TransferCycles) {
			t.Errorf("point %d (%v %v @ %dP): scenario counters %+v diverge from dse %+v",
				i, p.Kernel, p.Variant, p.Compute, r, p)
		}
	}

	// The K-1 reproduction targets, asserted on the declarative results
	// (deterministic, so exact comparisons): message passing beats pure
	// shared memory on every kernel past two cores, and the bare message
	// barrier never occupies the memory node.
	cycles := func(workload, variant string, cores int) int64 {
		for _, r := range results {
			if r.Workload == workload && r.Variant == variant && r.Cores == cores {
				switch workload {
				case "matmul":
					return r.TotalCycles
				case "syncbench":
					return r.CyclesPerRound
				}
				return r.CyclesPerIter
			}
		}
		t.Fatalf("no result for %s %s at %d cores", workload, variant, cores)
		return 0
	}
	for _, w := range []string{"jacobi", "matmul", "syncbench"} {
		for _, cores := range []int{4, 6, 8, 10, 12} {
			mp := cycles(w, "hybrid-full", cores)
			sm := cycles(w, "pure-sm", cores)
			if sm <= mp {
				t.Errorf("%s at %d cores: pure-sm (%d) not slower than hybrid-full (%d)", w, cores, sm, mp)
			}
		}
	}
	for _, r := range results {
		if r.Workload == "syncbench" && r.Variant == "hybrid-full" && r.MPMMUBusy != 0 {
			t.Errorf("message barrier at %d cores occupied the memory node for %d cycles", r.Cores, r.MPMMUBusy)
		}
	}
}

// TestKernelWorkloadsRenderPerSchema: a multi-workload sweep renders one
// block per workload, each through its registered schema, in all three
// formats.
func TestKernelWorkloadsRenderPerSchema(t *testing.T) {
	src := `{
		"name": "mixed",
		"workloads": ["matmul", "syncbench"],
		"kernel": {"n": 8, "cores": [2, 4], "cache_kb": [4], "variants": ["hybrid-full", "pure-sm"], "rounds": 3}
	}`
	s := mustParse(t, src)
	if got, want := s.NumPoints(), 2*2*1*1*2; got != want {
		t.Fatalf("NumPoints = %d, want %d", got, want)
	}
	results, err := RunCtx(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	// One block per workload, workloads in listed order.
	if results[0].Workload != "matmul" || results[len(results)-1].Workload != "syncbench" {
		t.Fatalf("block order broken: first %s, last %s", results[0].Workload, results[len(results)-1].Workload)
	}

	table := Table(results)
	for _, want := range []string{"total-cycles", "xfer-cycles", "cycles/round", "pure-sm"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	csv := CSV(results)
	for _, want := range []string{
		"variant,cores,cache_kb,policy,total_cycles,transfer_cycles,speedup,mpmmu_busy,noc_flits",
		"variant,cores,cache_kb,policy,cycles_per_round,speedup,mpmmu_busy,noc_flits",
	} {
		if !strings.Contains(csv, want) {
			t.Errorf("csv missing header %q:\n%s", want, csv)
		}
	}
	js, err := JSON(results)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"workload": "matmul"`, `"workload": "syncbench"`, `"transfer_cycles"`, `"cycles_per_round"`} {
		if !strings.Contains(js, want) {
			t.Errorf("json missing %q", want)
		}
	}
	if strings.Contains(js, "cycles_per_iter") {
		t.Error("jacobi fields leaked into matmul/syncbench json")
	}
}

// TestJacobiVariantsAxis: the variants axis on the jacobi workload keeps
// the pinned single-variant schema intact and appends the variant column
// only when the axis is actually swept.
func TestJacobiVariantsAxis(t *testing.T) {
	multi := mustParse(t, `{
		"name": "v",
		"workload": "jacobi",
		"kernel": {"n": 16, "cores": [2, 4], "cache_kb": [8], "variants": ["hybrid-full", "pure-sm"]}
	}`)
	if got, want := multi.NumPoints(), 2*2; got != want {
		t.Fatalf("NumPoints = %d, want %d", got, want)
	}
	results, err := RunCtx(context.Background(), multi)
	if err != nil {
		t.Fatal(err)
	}
	// Variants are outermost: the hybrid-full block precedes pure-sm.
	if results[0].Variant != "hybrid-full" || results[3].Variant != "pure-sm" {
		t.Fatalf("variant axis order broken: %+v", results)
	}
	csv := CSV(results)
	if !strings.Contains(csv, "speedup,variant") || !strings.Contains(csv, ",pure-sm") {
		t.Errorf("multi-variant jacobi csv lacks the variant column:\n%s", csv)
	}
	if !strings.Contains(Table(results), "variant") {
		t.Errorf("multi-variant jacobi table lacks the variant column")
	}
	// Speedup baselines are per variant: each variant's two-core point is
	// its own 1.0.
	if results[0].Speedup != 1.0 || results[2].Speedup != 1.0 {
		t.Errorf("per-variant speedup baselines broken: %+v", results)
	}

	single, err := RunCtx(context.Background(), mustParse(t, `{
		"name": "v",
		"workload": "jacobi",
		"kernel": {"n": 16, "cores": [2, 4], "cache_kb": [8]}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := CSV(single); strings.Contains(got, "variant") {
		t.Errorf("single-variant jacobi csv must keep the pinned dse.PointsCSV schema:\n%s", got)
	}
}
