package scenario

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/jacobi"
	"repro/internal/resultcache"
)

// TestKernelAblationGolden holds kernel-ablation.json, the K-1 sweep whose
// -format kernel table TestFigsGolden pins, to its line of
// figureFileAxes, and asserts the K-1 reproduction targets on its rows
// (deterministic, so exact comparisons): message passing beats pure
// shared memory on every kernel past two cores, and the bare message
// barrier never occupies the memory node.
func TestKernelAblationGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the kernel ablation")
	}
	checkFigureAxes(t, "../../examples/scenarios/kernel-ablation.json")
	_, results := runFigureFile(t, "scenarios/kernel-ablation.json")
	for _, w := range []string{"jacobi", "matmul", "syncbench"} {
		for _, cores := range []int{4, 6, 8, 10, 12} {
			mp := ablationCycles(t, results, w, "hybrid-full", cores)
			sm := ablationCycles(t, results, w, "pure-sm", cores)
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

// ablationCycles returns the headline cycles of one kernel-ablation row.
func ablationCycles(t *testing.T, results []Result, workload, variant string, cores int) int64 {
	t.Helper()
	for i := range results {
		if r := &results[i]; r.Workload == workload && r.Variant == variant && r.Cores == cores {
			cycles, _ := kernelCycles(r)
			return cycles
		}
	}
	t.Fatalf("no result for %s %s at %d cores", workload, variant, cores)
	return 0
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

func TestAreaModelCalibration(t *testing.T) {
	// The 168 configurations must span roughly the 2-22 mm2 x-axis of
	// Figures 7/9.
	min := paperArea.area(2, 2)
	max := paperArea.area(15, 64)
	if min < 1 || min > 4 {
		t.Errorf("smallest config area %.2f outside 1-4 mm2", min)
	}
	if max < 18 || max > 45 {
		t.Errorf("largest config area %.2f outside 18-45 mm2", max)
	}
	// Monotonicity.
	if paperArea.area(5, 8) >= paperArea.area(6, 8) {
		t.Error("area must grow with cores")
	}
	if paperArea.area(5, 8) >= paperArea.area(5, 16) {
		t.Error("area must grow with cache")
	}
}

func TestAttachSpeedup(t *testing.T) {
	rows := []Result{
		{Workload: "matmul", Variant: "hybrid-full", Cores: 2, CacheKB: 2, TotalCycles: 1000},
		{Workload: "matmul", Variant: "hybrid-full", Cores: 4, CacheKB: 2, TotalCycles: 500},
		{Workload: "matmul", Variant: "hybrid-full", Cores: 8, CacheKB: 2, TotalCycles: 200},
	}
	attachSpeedup(rows)
	if rows[0].Speedup != 1 {
		t.Errorf("base speedup %v, want 1", rows[0].Speedup)
	}
	if rows[1].Speedup != 2 || rows[2].Speedup != 5 {
		t.Errorf("speedups %v %v", rows[1].Speedup, rows[2].Speedup)
	}
}

// kernelWorkloadNames lists the kernel subset of WorkloadNames.
func kernelWorkloadNames() []string {
	var names []string
	for _, k := range AllWorkloads() {
		if k.IsKernel() {
			names = append(names, k.String())
		}
	}
	return names
}

// TestKernelSupports: every kernel runs every variant except syncbench's
// hybrid-sync, which measures no barrier of its own.
func TestKernelSupports(t *testing.T) {
	for _, k := range kernelWorkloadNames() {
		for _, v := range jacobi.AllVariants() {
			n := `"n": 8, `
			if k == "syncbench" {
				n = ""
			}
			_, err := Parse([]byte(`{"workload": "` + k + `", "kernel": {` + n + `"variant": "` + v.String() + `", "cores": [2], "cache_kb": [4]}}`))
			if want := !(k == "syncbench" && v == jacobi.HybridSync); (err == nil) != want {
				t.Errorf("%s %v: Parse = %v, want supported=%t", k, v, err, want)
			}
		}
	}
}

func TestSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in short mode")
	}
	s := smallJacobi(t, "[3]", "[4]")
	a, err := RunCtx(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCtx(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if a[0].CyclesPerIter != b[0].CyclesPerIter {
		t.Fatalf("sweep not deterministic: %d vs %d", a[0].CyclesPerIter, b[0].CyclesPerIter)
	}
}

// TestKernelSweepDeterministic: kernel runs take no seed, so the whole
// sweep must be bit-identical across executions and parallelism levels.
func TestKernelSweepDeterministic(t *testing.T) {
	s := mustParse(t, `{"name": "det", "workload": "matmul",
		"kernel": {"n": 8, "cores": [2, 3], "cache_kb": [4], "variants": ["hybrid-full", "pure-sm"]}}`)
	a, err := RunCtx(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	s.Parallelism = 1
	b, err := RunCtx(context.Background(), s)
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

// TestSweepPointsValidation: malformed filters fail before any simulation.
func TestSweepPointsValidation(t *testing.T) {
	s := mustParse(t, `{"name": "pts", "workload": "jacobi",
		"kernel": {"n": 16, "cores": [2, 4], "cache_kb": [4, 8], "policies": ["wb", "wt"]}}`)
	for _, tc := range []struct {
		points  []int
		wantSub string
	}{
		{[]int{3, 1}, "increasing"},
		{[]int{2, 2}, "increasing"},
		{[]int{0, 99}, "outside"},
		{[]int{-1}, "increasing"}, // -1 <= prev(-1) trips the order check first
	} {
		ps, err := s.points()
		if err != nil {
			t.Fatal(err)
		}
		_, err = runPoints(context.Background(), s, ps, tc.points)
		if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("points=%v: err = %v, want mention of %q", tc.points, err, tc.wantSub)
		}
	}
}

// TestKernelSweepPointsFilter covers the kernel grid under a points
// filter: indices spanning variant series map onto the right
// per-variant jobs, and Speedup is left to the merge.
func TestKernelSweepPointsFilter(t *testing.T) {
	s := mustParse(t, `{"name": "pts", "workload": "jacobi",
		"kernel": {"n": 16, "cores": [2, 4], "cache_kb": [4], "policies": ["wb"],
		           "variants": ["hybrid-full", "pure-sm"], "warmup": 1, "measured": 1}}`)
	full, err := RunCtx(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 4 {
		t.Fatalf("full kernel sweep has %d points, want 4", len(full))
	}
	// One index in each variant's series.
	points := []int{1, 2}
	ps, err := s.points()
	if err != nil {
		t.Fatal(err)
	}
	sub, err := runPoints(context.Background(), s, ps, points)
	if err != nil {
		t.Fatal(err)
	}
	if len(sub) != 2 {
		t.Fatalf("filtered kernel sweep returned %d points", len(sub))
	}
	for i, p := range points {
		want := full[p]
		want.Speedup = 0
		if sub[i] != want {
			t.Errorf("kernel point %d: filtered %+v, full-sweep %+v", p, sub[i], want)
		}
	}
}

// TestSweepOverlappingGridsDedup proves the cache is content-addressed,
// not run-scoped: two different sweeps sharing one cache hit on exactly
// their overlapping points. The second grid shares cores {4} x caches
// {4,16} with the first (2 points) and adds cores {8} (2 fresh points).
func TestSweepOverlappingGridsDedup(t *testing.T) {
	rc := resultcache.New(resultcache.NewMemoryStore(0))

	first := smallJacobi(t, "[2, 4]", "[4, 16]")
	first.Cache = rc.Scope()
	if _, err := RunCtx(context.Background(), first); err != nil {
		t.Fatal(err)
	}
	if st := first.Cache.Stats(); st.Hits != 0 || st.Computes != 4 {
		t.Fatalf("first sweep stats %v, want 4 computes, 0 hits", st)
	}

	second := smallJacobi(t, "[4, 8]", "[4, 16]")
	second.Cache = rc.Scope()
	rows, err := RunCtx(context.Background(), second)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("second sweep returned %d points, want 4", len(rows))
	}
	st := second.Cache.Stats()
	if st.Hits != 2 || st.Computes != 2 {
		t.Errorf("second sweep stats %v, want exactly the 2 overlapping points hit and the 2 fresh ones computed", st)
	}

	// The overlap must be invisible in the results: the cached cores=4
	// points equal a cache-off evaluation of the same grid.
	second.Cache = nil
	off, err := RunCtx(context.Background(), second)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, off) {
		t.Errorf("cached overlapping sweep differs from cache-off:\n%+v\nvs\n%+v", rows, off)
	}
}

// TestKernelSweepCacheByteIdentical extends the contract to every kernel:
// matmul and syncbench store under their own key domains and value
// encodings, so each kernel is exercised separately.
func TestKernelSweepCacheByteIdentical(t *testing.T) {
	for _, k := range kernelWorkloadNames() {
		t.Run(k, func(t *testing.T) {
			t.Parallel()
			n := `"n": 16, `
			if k == "syncbench" {
				n = ""
			}
			s := mustParse(t, `{"name": "c", "workload": "`+k+`", "kernel": {`+n+`"cores": [2, 4], "cache_kb": [8]}}`)
			off, err := RunCtx(context.Background(), s)
			if err != nil {
				t.Fatal(err)
			}
			s.Cache = resultcache.New(resultcache.NewMemoryStore(0))
			if _, err := RunCtx(context.Background(), s); err != nil { // cold
				t.Fatal(err)
			}
			warm, err := RunCtx(context.Background(), s)
			if err != nil {
				t.Fatal(err)
			}
			if len(warm) != len(off) {
				t.Fatalf("warm sweep returned %d points, want %d", len(warm), len(off))
			}
			if !reflect.DeepEqual(warm, off) {
				t.Errorf("warm sweep differs from cache-off:\n%+v\nvs\n%+v", warm, off)
			}
			if st := s.Cache.Stats(); st.Hits < uint64(len(off)) {
				t.Errorf("warm sweep hits = %d, want >= %d (%v)", st.Hits, len(off), st)
			}
		})
	}
}
