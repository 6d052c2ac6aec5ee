package scenario

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dse"
	"repro/internal/jacobi"
	"repro/internal/resultcache"
)

// TestFigsGolden holds every figure format to the bytes of
// testdata/figures/*.golden, recorded from the hand-coded experiments and
// kept byte for byte since: the tables are the reproduction, so a moved
// digit, a reordered row or a changed caption fails here. Each file runs
// once (Figs 7 and 9 render the runs of Figs 6 and 8) over one result
// cache, so the points two figures share simulate once: the comparisons'
// hybrid-full series lie on Fig 6's grid, and S-1 and the three-variant
// K-1 on K-1's. The goldens are the stdout of the command that printed
// the figures before they were formats; it ended each figure with a blank
// line (Fprintln of a table that ends in a newline). A figure format
// prints the table alone, so each golden is compared with the render
// plus that "\n".
func TestFigsGolden(t *testing.T) {
	rc, err := resultcache.Open(resultcache.BackendMemory, "", 0)
	if err != nil {
		t.Fatal(err)
	}
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
	} {
		s, err := Load(filepath.Join("..", "..", "examples", c.file))
		if err != nil {
			t.Fatal(err)
		}
		s.Cache = rc
		results, err := RunCtx(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
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

// TestFigureFilesResolve holds every file in examples/figures to the dse
// sweep of its figure, the way TestFig8QuickGolden holds fig8-quick.json:
// the Quick files are the sweeps the goldens pin, and the Full files,
// which no test runs, are the paper's grids point for point.
func TestFigureFilesResolve(t *testing.T) {
	k1 := func(cores []int, variants []jacobi.Variant, kernels ...dse.Kernel) []dse.KernelOptions {
		out := make([]dse.KernelOptions, len(kernels))
		for i, k := range kernels {
			out[i] = dse.K1Options(k)
			out[i].Cores = cores
			if variants != nil {
				// Without syncbench a file cannot set rounds, which jacobi
				// and matmul ignore.
				out[i].Variants, out[i].Rounds = variants, 0
			}
		}
		return out
	}
	barrier := func(cores ...int) []dse.KernelOptions {
		o := k1(cores, nil, dse.KernelSyncbench)
		// A syncbench-only file cannot set the problem size or the jacobi
		// iteration counts, which syncbench ignores.
		o[0].N, o[0].Warmup, o[0].Measured = 0, 0, 0
		return o
	}
	want := map[string][]dse.KernelOptions{
		"fig6":         {dse.Fig6Options(dse.Quick)},
		"fig6-full":    {dse.Fig6Options(dse.Full)},
		"fig8-full":    {dse.Fig8Options(dse.Full)},
		"hybrid":       {dse.HybridComparisonOptions(dse.Quick)},
		"hybrid-full":  {dse.HybridComparisonOptions(dse.Full)},
		"sync":         {dse.SmallCacheComparisonOptions(dse.Quick)},
		"sync-full":    {dse.SmallCacheComparisonOptions(dse.Full)},
		"barrier":      barrier(2, 4, 8),
		"barrier-full": barrier(2, 4, 6, 8, 10, 12, 15),
		"kernel-full":  k1(dse.PaperCores(), nil, dse.AllKernels()...),
		"kernel-jacobi-matmul-3variants": k1(dse.K1Options(dse.KernelJacobi).Cores,
			[]jacobi.Variant{jacobi.HybridFull, jacobi.HybridSync, jacobi.PureSM}, dse.KernelJacobi, dse.KernelMatmul),
	}
	files, err := filepath.Glob("../../examples/figures/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(want) {
		t.Errorf("examples/figures holds %d files, the table %d", len(files), len(want))
	}
	for _, file := range files {
		s, err := Load(file)
		if err != nil {
			t.Fatal(err)
		}
		sweeps, ok := want[s.Name]
		if !ok {
			t.Errorf("%s: no sweep to resolve to", file)
			continue
		}
		kinds, err := s.workloadKinds()
		if err != nil {
			t.Fatal(err)
		}
		if len(kinds) != len(sweeps) {
			t.Errorf("%s sweeps %d workloads, want %d", file, len(kinds), len(sweeps))
			continue
		}
		for i, k := range kinds {
			got, err := s.kernelSweepOptions(k.kernel())
			if err != nil {
				t.Fatal(err)
			}
			got.Parallelism, got.Cache = 0, nil
			if !reflect.DeepEqual(got, sweeps[i]) {
				t.Errorf("%s resolves for %v to\n%+v\nwant\n%+v", file, k, got, sweeps[i])
			}
		}
	}
}

// TestFigureFormatFitsWorkload: a figure format draws only its workloads'
// rows, and a caller's choice of format is refused before a point runs
// (ResolveFormat, which the CLI's -format and serve's ?format= go
// through; TestParseRejects covers a file's "output"), as is drawing it
// through Scenario.Render. The package-level Render has no scenario, so
// it refuses every figure format.
func TestFigureFormatFitsWorkload(t *testing.T) {
	noc := mustParse(t, `{"name": "n", "workload": "noc-synthetic",
		"noc": {"width": 4, "height": 4, "patterns": ["uniform"], "rates": [0.1]}}`)
	matmul := mustParse(t, `{"name": "m", "workload": "matmul", "kernel": {"n": 8, "cores": [2], "cache_kb": [4]}}`)
	jac := mustParse(t, `{"name": "j", "workload": "jacobi", "kernel": {"n": 8, "cores": [2], "cache_kb": [4]}}`)
	for _, c := range []struct {
		s      *Scenario
		format string
		fits   bool
	}{
		{jac, "fig6", true}, {jac, "kernel", true}, {jac, "barrier", false},
		{matmul, "fig9", false}, {matmul, "hybrid", false}, {matmul, "kernel", true},
		{noc, "table", true}, {noc, "kernel", false},
	} {
		_, err := c.s.ResolveFormat(c.format)
		if (err == nil) != c.fits {
			t.Errorf("%s -format %s: %v, want fits=%v", c.s.Workload, c.format, err, c.fits)
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
