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
// workload axis, mirroring TestTopologyAblationGolden: kernel-ablation.json
// resolves, kernel by kernel, to dse.K1Options, the K-1 sweeps whose
// -format kernel table TestFigsGolden pins.
func TestKernelAblationGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the kernel ablation")
	}
	s, results := loadKernelAblation(t)

	if !reflect.DeepEqual(s.Workloads, []string{"jacobi", "matmul", "syncbench"}) {
		t.Errorf("kernel-ablation.json workloads = %v, want every kernel", s.Workloads)
	}
	for _, k := range dse.AllKernels() {
		got, err := s.kernelSweepOptions(k)
		if err != nil {
			t.Fatal(err)
		}
		got.Parallelism, got.Cache = 0, nil
		if want := dse.K1Options(k); !reflect.DeepEqual(got, want) {
			t.Errorf("kernel-ablation.json resolves for %v to\n%+v\ndse.K1Options is\n%+v", k, got, want)
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

	table := renderTable(results)
	for _, want := range []string{"total-cycles", "xfer-cycles", "cycles/round", "pure-sm"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	csv := renderCSV(results)
	for _, want := range []string{
		"variant,cores,cache_kb,policy,total_cycles,transfer_cycles,speedup,mpmmu_busy,noc_flits",
		"variant,cores,cache_kb,policy,cycles_per_round,speedup,mpmmu_busy,noc_flits",
	} {
		if !strings.Contains(csv, want) {
			t.Errorf("csv missing header %q:\n%s", want, csv)
		}
	}
	js, err := renderJSON(results)
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
	csv := renderCSV(results)
	if !strings.Contains(csv, "speedup,variant") || !strings.Contains(csv, ",pure-sm") {
		t.Errorf("multi-variant jacobi csv lacks the variant column:\n%s", csv)
	}
	if !strings.Contains(renderTable(results), "variant") {
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
	if got := renderCSV(single); strings.Contains(got, "variant") {
		t.Errorf("single-variant jacobi csv must keep the pinned fig8-quick CSV schema:\n%s", got)
	}
}
