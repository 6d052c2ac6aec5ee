package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/noc"
	"repro/internal/scenario"
)

// TestGoldenFig8ViaCLI is the acceptance check for the scenario runner:
// the shipped fig8-quick.json, run through the CLI in CSV mode, must
// reproduce the Quick-fidelity Figure 8 sweep byte-identically. The file
// resolves to dse.Fig8Options(Quick) (scenario.TestFig8QuickGolden);
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

// TestValidateAllExamples keeps every shipped scenario file loadable.
func TestValidateAllExamples(t *testing.T) {
	files, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(files) < 4 {
		t.Fatalf("expected at least 4 example scenarios, got %v (%v)", files, err)
	}
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
	// Negative counts are usage errors, not GOMAXPROCS and not a late
	// failure inside a shard worker.
	for _, args := range [][]string{
		{"-parallelism", "-2", "../../examples/scenarios/smoke.json"},
		{"-parallelism", "-2", "-shards", "2", "../../examples/scenarios/smoke.json"},
		{"-workers", "-2", "-shards", "2", "../../examples/scenarios/smoke.json"},
	} {
		if err := run(context.Background(), args, &out); err == nil || !strings.Contains(err.Error(), args[0]+" must be >= 0") {
			t.Errorf("%v = %v, want a %s usage error", args, err, args[0])
		}
	}
}

// TestShardingFlagsNeedShards: a sharding flag without -shards would run
// single-process while the user believes the sweep is sharded, so it is a
// usage error before anything runs.
func TestShardingFlagsNeedShards(t *testing.T) {
	cases := []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-workers", "2"}, "-workers only applies to a sharded run"},
		{[]string{"-worker-cmd", "medea-scenarios -worker"}, "-worker-cmd only applies to a sharded run"},
		{[]string{"-worker-url", "http://127.0.0.1:1"}, "-worker-url only applies to a sharded run"},
		{[]string{"-shards", "0", "-workers", "2"}, "-workers only applies to a sharded run"},
		{[]string{"-validate"}, ""},
		{[]string{"-validate", "-workers", "0"}, ""},
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
