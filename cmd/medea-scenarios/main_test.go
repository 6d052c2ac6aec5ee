package main

import (
	"context"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/noc"
	"repro/internal/scenario"
)

// TestGoldenFig8ViaCLI is the acceptance check for the scenario runner:
// the shipped fig8-quick.json, run through the CLI in CSV mode, must
// reproduce the Quick-fidelity Figure 8 sweep byte-identically
// (scenario.TestFig8QuickGolden pins the file's axes);
// testdata/fig8-quick.csv.golden holds the rows the hand-coded sweep
// rendered.
func TestGoldenFig8ViaCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the Fig8 sweep")
	}
	want, err := os.ReadFile("testdata/fig8-quick.csv.golden")
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run(context.Background(), []string{"-format", "csv", "../../examples/scenarios/fig8-quick.json"}, &out); err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Errorf("CLI output diverges from testdata/fig8-quick.csv.golden:\n--- cli ---\n%s--- golden ---\n%s",
			out.String(), want)
	}
}

// TestValidateAllExamples keeps every shipped scenario and figure file
// loadable.
func TestValidateAllExamples(t *testing.T) {
	files, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(files) < 4 {
		t.Fatalf("expected at least 4 example scenarios, got %v (%v)", files, err)
	}
	figures, err := filepath.Glob("../../examples/figures/*.json")
	if err != nil || len(figures) < 4 {
		t.Fatalf("expected at least 4 figure files, got %v (%v)", figures, err)
	}
	files = append(files, figures...)
	var out strings.Builder
	if err := run(context.Background(), append([]string{"-validate"}, files...), &out); err != nil {
		t.Fatal(err)
	}
}

func TestSmokeScenarioRuns(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"../../examples/scenarios/smoke.json"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"pattern", "uniform", "tornado"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("smoke output missing %q:\n%s", want, out.String())
		}
	}
}

func TestPatternsFlagListsEverything(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-patterns"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, name := range noc.PatternNames() {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-patterns output missing %q", name)
		}
	}
}

func TestWorkloadsFlagListsEverything(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-workloads"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, name := range scenario.WorkloadNames() {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-workloads output missing %q", name)
		}
	}
}

// TestKernelScenarioViaCLI runs a small multi-kernel scenario end to end
// through the CLI: one block per workload, each rendered by its schema.
func TestKernelScenarioViaCLI(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kernels.json")
	if err := os.WriteFile(path, []byte(`{
		"workloads": ["matmul", "syncbench"],
		"kernel": {"n": 8, "cores": [2], "cache_kb": [4],
		           "variants": ["hybrid-full", "pure-sm"], "rounds": 3}
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run(context.Background(), []string{path}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"total-cycles", "cycles/round", "pure-sm"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("kernel scenario output missing %q:\n%s", want, out.String())
		}
	}
}

// TestInvalidKernelCombosViaCLI: invalid workload/variant combinations
// must fail at load time with actionable messages, before any sweep runs.
func TestInvalidKernelCombosViaCLI(t *testing.T) {
	cases := []struct {
		name, json, wantSub string
	}{
		{"unknown workload", `{"workload": "fft", "kernel": {"n": 8, "cores": [2], "cache_kb": [4]}}`, "unknown workload"},
		{"noc in workloads", `{"workloads": ["jacobi", "noc-synthetic"], "kernel": {"n": 8, "cores": [2], "cache_kb": [4]}}`, "kernel workloads"},
		{"syncbench hybrid-sync", `{"workload": "syncbench", "kernel": {"cores": [2], "cache_kb": [4], "variants": ["hybrid-sync"]}}`, "hybrid-sync"},
		{"unknown variant", `{"workload": "matmul", "kernel": {"n": 8, "cores": [2], "cache_kb": [4], "variant": "mpi"}}`, "unknown variant"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "bad.json")
			if err := os.WriteFile(path, []byte(c.json), 0o644); err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			err := run(context.Background(), []string{path}, &out)
			if err == nil {
				t.Fatalf("invalid scenario accepted:\n%s", c.json)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("error %q does not mention %q", err, c.wantSub)
			}
		})
	}
}

func TestRoutersFlagListsEverything(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-routers"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, name := range noc.RouterNames() {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-routers output missing %q", name)
		}
	}
}

func TestTopologiesFlagListsEverything(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-topologies"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, name := range noc.TopologyNames() {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-topologies output missing %q", name)
		}
	}
}

func TestOutFlagWritesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.csv")
	var out strings.Builder
	if err := run(context.Background(), []string{"-format", "csv", "-out", path, "../../examples/scenarios/smoke.json"}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "pattern,rate,seed,") {
		t.Errorf("unexpected CSV: %s", data)
	}
	if out.Len() != 0 {
		t.Errorf("results leaked to stdout with -out: %q", out.String())
	}
}

func TestCLIErrors(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), nil, &out); err == nil {
		t.Error("no arguments should fail")
	}
	if err := run(context.Background(), []string{"no-such-file.json"}, &out); err == nil {
		t.Error("missing file should fail")
	}
	if err := run(context.Background(), []string{"-out", "x.csv", "a.json", "b.json"}, &out); err == nil {
		t.Error("-out with two scenarios should fail")
	}
	// A bad -format must be rejected before any sweep runs.
	if err := run(context.Background(), []string{"-format", "xml", "../../examples/scenarios/smoke.json"}, &out); err == nil ||
		!strings.Contains(err.Error(), "-format") {
		t.Errorf("bad -format not rejected up front: %v", err)
	}
	// A figure format the workload cannot draw fails before any point
	// runs: the context is canceled, so a sweep that started would fail
	// with a cancellation instead. With several files, the misfit in the
	// last one stops the first from running too.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, args := range [][]string{
		{"-format", "fig6", "../../examples/scenarios/smoke.json"},
		{"-format", "kernel", "../../examples/scenarios/kernel-ablation.json", "../../examples/scenarios/smoke.json"},
		{"-validate", "-format", "barrier", "../../examples/scenarios/kernel-ablation.json"},
	} {
		if err := run(canceled, args, &out); err == nil || !strings.Contains(err.Error(), "draws") {
			t.Errorf("%v = %v, want the figure format refused", args, err)
		}
	}
	// So does one whose caption or table the file contradicts: Fig 8's
	// one-variant 30x30 sweep drawn as T-1, T-1's three variants as Fig 6.
	for _, args := range [][]string{
		{"-format", "hybrid", "../../examples/scenarios/fig8-quick.json"},
		{"-format", "fig6", "../../examples/figures/hybrid.json"},
	} {
		if err := run(canceled, args, &out); err == nil || !strings.Contains(err.Error(), "variant series") {
			t.Errorf("%v = %v, want the figure format refused", args, err)
		}
	}
	// Negative counts are usage errors, not GOMAXPROCS and not a late
	// failure inside a shard worker.
	for _, args := range [][]string{
		{"-parallelism", "-2", "../../examples/scenarios/smoke.json"},
		{"-parallelism", "-2", "-shards", "2", "../../examples/scenarios/smoke.json"},
	} {
		if err := run(context.Background(), args, &out); err == nil || !strings.Contains(err.Error(), args[0]+" must be >= 0") {
			t.Errorf("%v = %v, want a %s usage error", args, err, args[0])
		}
	}
}

// TestShardingFlagsNeedShards: -worker-url without -shards would run
// single-process while the user believes the sweep is sharded, and
// -shards without -worker-url has nowhere to run its shards, so each is a
// usage error before anything runs.
func TestShardingFlagsNeedShards(t *testing.T) {
	cases := []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-worker-url", "http://127.0.0.1:1"}, "-worker-url only applies to a sharded run"},
		{[]string{"-shards", "2"}, "-shards needs -worker-url"},
		{[]string{"-validate"}, ""},
	}
	for _, c := range cases {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			var out strings.Builder
			err := run(context.Background(), append(c.args, "../../examples/scenarios/smoke.json"), &out)
			switch {
			case c.wantErr == "" && err != nil:
				t.Errorf("%v = %v, want success", c.args, err)
			case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
				t.Errorf("%v = %v, want an error containing %q", c.args, err, c.wantErr)
			}
		})
	}
}

// TestExplicitDefaultsHitDiskCache runs a noc and a service file over one
// -cache disk directory, first with every default left out, then with
// the defaults spelled out (queue cap 16, response flits 1, think time
// 1, and a hotspot node under the uniform pattern, which ignores it).
// The second run must be served from the entries the first stored: every
// point a hit, the same rows and the same merkle root.
func TestExplicitDefaultsHitDiskCache(t *testing.T) {
	cacheDir := filepath.Join(t.TempDir(), "cache")
	var logs strings.Builder
	log.SetOutput(&logs)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	for _, c := range []struct{ name, omitted, explicit string }{
		{"noc",
			`{"name": "point", "workload": "noc-synthetic", "seeds": [1],
			  "noc": {"width": 4, "height": 4, "patterns": ["uniform"], "rates": [0.1], "measure_cycles": 500}}`,
			`{"name": "point", "workload": "noc-synthetic", "seeds": [1],
			  "noc": {"width": 4, "height": 4, "patterns": ["uniform"], "rates": [0.1], "measure_cycles": 500,
			          "queue_cap": 16, "hotspot_node": 3}}`},
		{"service",
			`{"name": "point", "workload": "service", "seeds": [1],
			  "service": {"width": 4, "height": 4, "servers": 4, "arrival_rates": [0.03], "measure_cycles": 500}}`,
			`{"name": "point", "workload": "service", "seeds": [1],
			  "service": {"width": 4, "height": 4, "servers": 4, "arrival_rates": [0.03], "measure_cycles": 500,
			              "queue_cap": 16, "response_flits": 1, "think_time": 1}}`},
	} {
		var outs, roots []string
		for i, src := range []string{c.omitted, c.explicit} {
			path := filepath.Join(t.TempDir(), "point.json")
			if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
			logs.Reset()
			var out strings.Builder
			if err := run(context.Background(), []string{"-cache", "disk", "-cache-dir", cacheDir, path}, &out); err != nil {
				t.Fatalf("%s run %d: %v", c.name, i, err)
			}
			_, root, ok := strings.Cut(logs.String(), "merkle root ")
			if !ok {
				t.Fatalf("%s run %d logged no merkle root: %q", c.name, i, logs.String())
			}
			outs, roots = append(outs, out.String()), append(roots, strings.TrimSpace(root))
			if i == 1 && !strings.Contains(logs.String(), "1 hits, 0 misses") {
				t.Errorf("%s: the explicit defaults missed the cache the omitted ones filled: %s", c.name, logs.String())
			}
		}
		if outs[0] != outs[1] || roots[0] != roots[1] {
			t.Errorf("%s: explicit defaults changed the run: roots %s and %s\n%s\n%s", c.name, roots[0], roots[1], outs[0], outs[1])
		}
	}
}
