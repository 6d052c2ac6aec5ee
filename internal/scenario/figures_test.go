package scenario

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/jacobi"
	"repro/internal/resultcache"
)

// figureRuns holds the run of every example file the figure tests read,
// each run once per test binary over one result cache: TestFigsGolden and
// the shape tests share the rows, and the points two files share (the
// comparisons' hybrid-full series lie on Fig 6's grid, S-1 and the
// three-variant K-1 on K-1's) simulate once.
var figureRuns struct {
	sync.Mutex
	cache *resultcache.Cache
	runs  map[string]figureRun
}

type figureRun struct {
	s       *Scenario
	results []Result
}

// runFigureFile returns the scenario of examples/<file> and its rows,
// running it on first use. The rows are shared: callers must not modify
// them.
func runFigureFile(t *testing.T, file string) (*Scenario, []Result) {
	t.Helper()
	figureRuns.Lock()
	defer figureRuns.Unlock()
	if r, ok := figureRuns.runs[file]; ok {
		return r.s, r.results
	}
	if figureRuns.runs == nil {
		figureRuns.cache = resultcache.New(resultcache.NewMemoryStore(0))
		figureRuns.runs = map[string]figureRun{}
	}
	s, err := Load(filepath.Join("..", "..", "examples", file))
	if err != nil {
		t.Fatal(err)
	}
	s.Cache = figureRuns.cache
	results, err := RunCtx(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	figureRuns.runs[file] = figureRun{s, results}
	return s, results
}

// TestFigsGolden holds every figure format to the bytes of
// testdata/figures/*.golden, recorded from the hand-coded experiments and
// kept byte for byte since: the tables are the reproduction, so a moved
// digit, a reordered row or a changed caption fails here. Each file runs
// once (Figs 7 and 9 render the runs of Figs 6 and 8; runFigureFile).
// The goldens are the stdout of the command that printed the figures
// before they were formats; it ended each figure with a blank line
// (Fprintln of a table that ends in a newline). A figure format prints
// the table alone, so each golden is compared with the render plus that
// "\n". The two detail goldens are the printout of the one-simulation
// command the detail format replaced, for the same configurations, plus
// the same "\n".
func TestFigsGolden(t *testing.T) {
	used := map[string]bool{}
	for _, c := range []struct {
		file    string
		renders [][2]string // {format, golden}
	}{
		{"figures/fig6.json", [][2]string{{"fig6", "fig-6"}, {"fig7", "fig-7"}}},
		{"scenarios/fig8-quick.json", [][2]string{{"fig8", "fig-8"}, {"fig9", "fig-9"}}},
		{"figures/hybrid.json", [][2]string{{"hybrid", "fig-hybrid"}}},
		{"figures/sync.json", [][2]string{{"sync", "fig-sync"}}},
		{"scenarios/kernel-ablation.json", [][2]string{{"kernel", "fig-kernel"}}},
		{"figures/barrier.json", [][2]string{{"barrier", "fig-barrier"}}},
		{"figures/kernel-jacobi-matmul-3variants.json", [][2]string{{"kernel", "kernel-jacobi-matmul-3variants"}}},
		{"figures/detail.json", [][2]string{{"detail", "detail"}}},
		{"figures/detail-pure-sm.json", [][2]string{{"detail", "detail-pure-sm"}}},
	} {
		s, results := runFigureFile(t, c.file)
		for _, r := range c.renders {
			format, golden := r[0], r[1]
			used[golden] = true
			t.Run(golden, func(t *testing.T) {
				want, err := os.ReadFile(filepath.Join("testdata", "figures", golden+".golden"))
				if err != nil {
					t.Fatal(err)
				}
				got, err := s.Render(results, format)
				if err != nil {
					t.Fatal(err)
				}
				if got+"\n" != string(want) {
					t.Errorf("-format %s of %s diverges from testdata/figures/%s.golden:\n--- got ---\n%s--- want ---\n%s",
						format, c.file, golden, got, want)
				}
			})
		}
	}
	goldens, err := filepath.Glob(filepath.Join("testdata", "figures", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if len(goldens) != len(used) {
		t.Errorf("%d goldens in testdata/figures, %d rendered", len(goldens), len(used))
	}
}

// figureFileAxes writes out the resolved kernel section of every figure
// sweep: each file in examples/figures, plus fig8-quick and
// kernel-ablation in examples/scenarios. The Quick files are the sweeps
// the goldens pin; the Full files, which no test runs, are the paper's
// grids point for point (fig6-full is its 168 configurations), so a hand
// edit to any of them fails here.
var figureFileAxes = func() map[string]figureAxes {
	var (
		jac        = []WorkloadKind{WorkloadJacobi}
		sb         = []WorkloadKind{WorkloadSyncbench}
		jm         = []WorkloadKind{WorkloadJacobi, WorkloadMatmul}
		kernels    = []WorkloadKind{WorkloadJacobi, WorkloadMatmul, WorkloadSyncbench}
		hf         = []jacobi.Variant{jacobi.HybridFull}
		mpsm       = []jacobi.Variant{jacobi.HybridFull, jacobi.PureSM}
		all3       = []jacobi.Variant{jacobi.HybridFull, jacobi.HybridSync, jacobi.PureSM}
		wb         = []cache.Policy{cache.WriteBack}
		wbwt       = []cache.Policy{cache.WriteBack, cache.WriteThrough}
		paperCores = []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
		quickCores = []int{2, 4, 6, 8, 10, 12, 15}
		k1Cores    = []int{2, 4, 6, 8, 10, 12}
	)
	// Every file runs 20 syncbench rounds and one warmup and one measured
	// jacobi iteration, set or defaulted.
	axes := func(kinds []WorkloadKind, n int, variants []jacobi.Variant, policies []cache.Policy, caches, cores []int, points int) figureAxes {
		return figureAxes{kinds, kernelSweep{n: n, variants: variants, policies: policies, cachesKB: caches, cores: cores,
			rounds: 20, warmup: 1, measured: 1}, points}
	}
	return map[string]figureAxes{
		"fig6":                           axes(jac, 60, hf, wbwt, []int{2, 8, 16, 64}, quickCores, 56),
		"fig6-full":                      axes(jac, 60, hf, wbwt, []int{2, 4, 8, 16, 32, 64}, paperCores, 168),
		"fig8-quick":                     axes(jac, 30, hf, wb, []int{2, 4, 16, 32}, quickCores, 28),
		"fig8-full":                      axes(jac, 30, hf, wb, []int{2, 4, 8, 16, 32}, paperCores, 70),
		"hybrid":                         axes(jac, 60, all3, wb, []int{16}, []int{2, 4, 6, 8, 10}, 15),
		"hybrid-full":                    axes(jac, 60, all3, wb, []int{16}, []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, 33),
		"sync":                           axes(jac, 60, all3, wb, []int{2}, []int{2, 6, 10}, 9),
		"sync-full":                      axes(jac, 60, all3, wb, []int{2}, k1Cores, 18),
		"barrier":                        axes(sb, 0, mpsm, wb, []int{16}, []int{2, 4, 8}, 6),
		"barrier-full":                   axes(sb, 0, mpsm, wb, []int{16}, quickCores, 14),
		"kernel-ablation":                axes(kernels, 30, mpsm, wb, []int{16}, k1Cores, 36),
		"kernel-full":                    axes(kernels, 30, mpsm, wb, []int{16}, paperCores, 84),
		"kernel-jacobi-matmul-3variants": axes(jm, 30, all3, wb, []int{16}, k1Cores, 36),
		"detail":                         axes(jac, 60, hf, wb, []int{16}, []int{4}, 1),
		"detail-pure-sm":                 axes(jac, 30, []jacobi.Variant{jacobi.PureSM}, wb, []int{4}, []int{8}, 1),
	}
}()

// figureAxes is one figure sweep: its workloads, its resolved kernel
// section and its point count.
type figureAxes struct {
	workloads []WorkloadKind
	sweep     kernelSweep
	points    int
}

// checkFigureAxes holds the scenario in file to its line of
// figureFileAxes.
func checkFigureAxes(t *testing.T, file string) {
	t.Helper()
	s, err := Load(file)
	if err != nil {
		t.Fatal(err)
	}
	want, ok := figureFileAxes[s.Name]
	if !ok {
		t.Errorf("%s: no line in figureFileAxes", file)
		return
	}
	kinds, err := s.workloadKinds()
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := s.Kernel.sweep()
	if err != nil {
		t.Fatal(err)
	}
	if got := (figureAxes{kinds, sweep, s.NumPoints()}); !reflect.DeepEqual(got, want) {
		t.Errorf("%s resolves to\n%+v\nfigureFileAxes has\n%+v", file, got, want)
	}
}

// TestFigureFilesResolve holds every file in examples/figures to its line
// of figureFileAxes, and the table to the files: it lists each of them
// and the two figure sweeps in examples/scenarios, nothing else.
func TestFigureFilesResolve(t *testing.T) {
	files, err := filepath.Glob("../../examples/figures/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files)+2 != len(figureFileAxes) {
		t.Errorf("examples/figures holds %d files, figureFileAxes %d lines (2 for examples/scenarios)", len(files), len(figureFileAxes))
	}
	for _, file := range files {
		checkFigureAxes(t, file)
	}
}

// loadFig6Full returns examples/figures/fig6-full.json and its resolved
// kernel section.
func loadFig6Full(t *testing.T) (*Scenario, kernelSweep) {
	t.Helper()
	s, err := Load(filepath.Join("..", "..", "examples", "figures", "fig6-full.json"))
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := s.Kernel.sweep()
	if err != nil {
		t.Fatal(err)
	}
	return s, sweep
}

func TestPaperGridIs168Points(t *testing.T) {
	s, sweep := loadFig6Full(t)
	if n := len(sweep.jobs()); n != 168 {
		t.Errorf("full Fig. 6 sweep has %d points, paper ran 168", n)
	}
	if n := s.NumPoints(); n != 168 {
		t.Errorf("fig6-full.json counts %d points, paper ran 168", n)
	}
}

// TestFig6FullIsPaperGrid: examples/figures/fig6-full.json is the paper's
// 60x60 sweep over 2-15 cores x 2-64 kB x write-back/write-through.
func TestFig6FullIsPaperGrid(t *testing.T) {
	s, sweep := loadFig6Full(t)
	kinds, err := s.workloadKinds()
	if err != nil {
		t.Fatal(err)
	}
	if want := []WorkloadKind{WorkloadJacobi}; !reflect.DeepEqual(kinds, want) {
		t.Errorf("fig6-full runs %v, want %v", kinds, want)
	}
	want := kernelSweep{
		n:        60,
		variants: []jacobi.Variant{jacobi.HybridFull},
		policies: []cache.Policy{cache.WriteBack, cache.WriteThrough},
		cachesKB: []int{2, 4, 8, 16, 32, 64},
		cores:    []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
		rounds:   20,
		warmup:   1,
		measured: 1,
	}
	if !reflect.DeepEqual(sweep, want) {
		t.Errorf("fig6-full resolves to %+v, want %+v", sweep, want)
	}
}

// TestFigureFormatFitsWorkload: a figure format draws only its workloads'
// rows, under the variants, problem size, L1 size and policy its caption
// and table assume, and a caller's choice of format is refused before a
// point runs (ResolveFormat, which the CLI's -format and serve's ?format=
// go through), as is a file's "output" (Validate) and drawing it through
// Scenario.Render. The package-level Render has no scenario, so it
// refuses every figure format.
func TestFigureFormatFitsWorkload(t *testing.T) {
	noc := mustParse(t, `{"name": "n", "workload": "noc-synthetic",
		"noc": {"width": 4, "height": 4, "patterns": ["uniform"], "rates": [0.1]}}`)
	matmul := mustParse(t, `{"name": "m", "workload": "matmul", "kernel": {"n": 8, "cores": [2], "cache_kb": [4]}}`)
	jac := mustParse(t, `{"name": "j", "workload": "jacobi", "kernel": {"n": 8, "cores": [2], "cache_kb": [4]}}`)
	// Four matmul rows the K-1 table cannot tell apart, under a one-cache
	// write-back caption.
	matmul2x2 := mustParse(t, `{"name": "m2x2", "workload": "matmul",
		"kernel": {"n": 8, "cores": [2], "cache_kb": [4, 8], "policies": ["wb", "wt"]}}`)
	jac60 := mustParse(t, `{"name": "j60", "workload": "jacobi", "kernel": {"n": 60, "cores": [2], "cache_kb": [4]}}`)
	jac30wt := mustParse(t, `{"name": "j30wt", "workload": "jacobi", "kernel": {"n": 30, "cores": [2], "cache_kb": [4], "policies": ["wt"]}}`)
	three := func(n, kb int) *Scenario {
		return mustParse(t, `{"name": "three", "workload": "jacobi", "kernel": {"n": `+strconv.Itoa(n)+`, "cores": [2], "cache_kb": [`+strconv.Itoa(kb)+`],
			"variants": ["hybrid-full", "hybrid-sync", "pure-sm"]}}`)
	}
	for _, c := range []struct {
		s      *Scenario
		format string
		want   string // "" fits
	}{
		{jac60, "fig6", ""}, {jac60, "fig7", ""}, {jac, "kernel", ""},
		{jac, "fig6", "captioned 60x60"}, {jac60, "fig9", "captioned 30x30"},
		{jac, "barrier", "draws syncbench rows"},
		{jac30wt, "fig9", ""}, {jac30wt, "fig8", "captioned write-back"},
		{three(60, 16), "hybrid", ""}, {three(60, 2), "sync", ""},
		{three(60, 16), "sync", "captioned 2 kB"}, {three(30, 16), "hybrid", "captioned 60x60"},
		{three(60, 16), "fig6", "draws 1 variant series"}, {jac60, "hybrid", "draws 3 variant series"},
		{matmul, "fig9", "draws jacobi rows"}, {matmul, "hybrid", "draws jacobi rows"}, {matmul, "kernel", ""},
		{noc, "table", ""}, {noc, "kernel", "draws jacobi/matmul/syncbench rows"},
		{matmul2x2, "kernel", "captioned with one L1 size"}, {jac30wt, "kernel", "captioned write-back"},
		{jac, "detail", ""}, {jac30wt, "detail", ""}, {matmul, "detail", "draws jacobi rows"},
		{three(60, 16), "detail", "describes one point, and this scenario has 3"},
	} {
		_, err := c.s.ResolveFormat(c.format)
		if (err == nil) != (c.want == "") || err != nil && !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s -format %s: %v, want %q", c.s.Name, c.format, err, c.want)
		}
	}
	// Drawn anyway, these two printed zeros, 0.00x and NaNx under the
	// T-1 caption, and a Fig 6 column holding only the last variant's
	// cycles. Every front door refuses them.
	for _, c := range []struct{ file, format string }{
		{"scenarios/fig8-quick.json", "hybrid"},
		{"figures/hybrid.json", "fig6"},
	} {
		s, err := Load(filepath.Join("..", "..", "examples", c.file))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.ResolveFormat(c.format); err == nil {
			t.Errorf("-format %s of %s accepted", c.format, c.file)
		}
		if _, err := s.Render(nil, c.format); err == nil {
			t.Errorf("Scenario.Render drew %s of %s", c.format, c.file)
		}
		withOutput := *s
		withOutput.Output = c.format
		if err := withOutput.Validate(); err == nil || !strings.Contains(err.Error(), `"output"`) {
			t.Errorf("%s with output %s: Validate = %v, want an \"output\" error", c.file, c.format, err)
		}
	}
	for _, f := range figures {
		if _, err := noc.ResolveFormat(f.format); err == nil {
			t.Errorf("-format %s accepted on a noc scenario", f.format)
		}
		if _, err := noc.Render([]Result{{Workload: "noc-synthetic"}}, f.format); err == nil {
			t.Errorf("Scenario.Render drew %s from noc rows", f.format)
		}
		if _, err := Render(nil, f.format); err == nil || !strings.Contains(err.Error(), "Scenario.Render") {
			t.Errorf("package Render(%s) = %v, want a pointer to Scenario.Render", f.format, err)
		}
	}
	if _, err := jac.ResolveFormat("fig10"); err == nil || !strings.Contains(err.Error(), "fig9") {
		t.Errorf("unknown format: %v, want the list of formats", err)
	}
}

// smallJacobi is a cheap 16x16 jacobi sweep at one write-back cache size.
func smallJacobi(t *testing.T, cores, cachesKB string) *Scenario {
	t.Helper()
	return mustParse(t, `{"name": "small", "workload": "jacobi",
		"kernel": {"n": 16, "cores": `+cores+`, "cache_kb": `+cachesKB+`, "policies": ["wb"], "warmup": 1, "measured": 1}}`)
}

func TestParetoFront(t *testing.T) {
	// Cores numbers the rows; 0 marks the ones that must be pruned.
	rows := []Result{
		{AreaMM2: 2, Speedup: 1, Cores: 1},
		{AreaMM2: 3, Speedup: 0.5}, // slower and bigger
		{AreaMM2: 4, Speedup: 3, Cores: 2},
		{AreaMM2: 4, Speedup: 2}, // equal area, slower
		{AreaMM2: 6, Speedup: 2.5},
		{AreaMM2: 8, Speedup: 5, Cores: 3},
	}
	front := paretoFront(rows)
	if len(front) != 3 {
		t.Fatalf("front: %+v", front)
	}
	for i, r := range front {
		if r.Cores != i+1 {
			t.Errorf("front[%d] = %+v, want row %d", i, r, i+1)
		}
	}
}

func TestKillRuleKnee(t *testing.T) {
	// Speedup grows superlinearly to row 2, then sublinearly: the knee is
	// index 2, and the two later steps are measured against it.
	front := []Result{
		{AreaMM2: 2, Speedup: 1},
		{AreaMM2: 3, Speedup: 2},   // +100% perf for +50% area: keep
		{AreaMM2: 4, Speedup: 3},   // +50% perf for +33% area: keep
		{AreaMM2: 8, Speedup: 3.5}, // +17% perf for +100% area: kill
		{AreaMM2: 12, Speedup: 3.6},
	}
	knee, steps := killRule(front)
	if knee != 2 {
		t.Errorf("knee = %d, want 2", knee)
	}
	want := []killStep{{1, 0.5, true}, {0.5, 1.0 / 3, true}, {1.0 / 6, 1, false}, {0.2, 2, false}}
	for i, s := range steps {
		if math.Abs(s.dPerf-want[i].dPerf) > 1e-12 || math.Abs(s.dArea-want[i].dArea) > 1e-12 || s.kept != want[i].kept {
			t.Errorf("step %d = %+v, want %+v", i+1, s, want[i])
		}
	}
	if len(steps) != len(want) {
		t.Errorf("%d steps, want %d", len(steps), len(want))
	}
	if knee, _ := killRule(nil); knee != -1 {
		t.Error("empty front should return -1")
	}
}

func TestSmallSweepAndTables(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in short mode")
	}
	rows, err := RunCtx(context.Background(), smallJacobi(t, "[2, 4]", "[2, 8]"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.CyclesPerIter <= 0 || r.AreaMM2 <= 0 || r.Speedup <= 0 {
			t.Errorf("bad row %+v", r)
		}
	}
	tbl := timeTable("test")(nil, rows)
	if !strings.Contains(tbl, "2kB$WB") || !strings.Contains(tbl, "8kB$WB") {
		t.Errorf("table missing columns:\n%s", tbl)
	}
	pt := paretoTable(paretoFront(rows), "pareto")
	if !strings.Contains(pt, "2P_2k$") {
		t.Errorf("pareto table missing labels:\n%s", pt)
	}
}

func TestCompareSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("compare in short mode")
	}
	rows, err := RunCtx(context.Background(), mustParse(t, `{"name": "cmp", "workload": "jacobi",
		"kernel": {"n": 16, "cores": [2, 4], "cache_kb": [8], "variants": ["hybrid-full", "hybrid-sync", "pure-sm"]}}`))
	if err != nil {
		t.Fatal(err)
	}
	cmp := compareRows(rows)
	if len(cmp) != 2 || cmp[0].cores != 2 || cmp[1].cores != 4 {
		t.Fatalf("rows %+v, want one per core count in sweep order", cmp)
	}
	for _, r := range cmp {
		if r.hybridFull <= 0 || r.hybridSync <= 0 || r.pureSM <= 0 {
			t.Errorf("bad row %+v", r)
		}
		if r.fullVsSM < 1 {
			t.Errorf("hybrid slower than pure SM at %d cores: %+v", r.cores, r)
		}
	}
	tbl := compareTable(cmp, "cmp")
	if !strings.Contains(tbl, "pure-sm") {
		t.Errorf("compare table malformed:\n%s", tbl)
	}
}
