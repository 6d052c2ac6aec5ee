package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

// writeTestTrace records nothing but writes a structurally valid trace
// file for validation tests that only need the file to exist and decode.
func writeTestTrace(t *testing.T, dir string) string {
	t.Helper()
	tr := trace.New(trace.Header{
		Width: 4, Height: 4,
		Topology: "torus", Router: "deflection",
		Pattern: "uniform", Rate: 0.1, Seed: 1,
		Measure: 500,
	})
	tr.RecordInjection(0, 0, 5, 0)
	tr.RecordInjection(3, 2, 7, 3)
	path := filepath.Join(dir, "test.trace")
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestInvalidTraceServiceCombosViaCLI: the trace and service workloads
// reject axes that cannot apply to them, at load time, with the fix named
// — mirroring TestInvalidKernelCombosViaCLI for the new workload kinds.
func TestInvalidTraceServiceCombosViaCLI(t *testing.T) {
	dir := t.TempDir()
	tracePath := writeTestTrace(t, dir)
	cases := []struct {
		name, json, wantSub string
	}{
		{
			"trace with noc patterns/rates axes",
			`{"workload": "trace", "trace": {"file": "` + tracePath + `"},
			  "noc": {"width": 4, "height": 4, "patterns": ["uniform"], "rates": [0.1]}}`,
			`the "noc" patterns/rates axes cannot apply`,
		},
		{
			"trace with measure_windows",
			`{"workload": "trace", "trace": {"file": "` + tracePath + `"},
			  "noc": {"width": 4, "height": 4, "measure_windows": [300, 300]}}`,
			"a replay's horizon is fixed by the recording",
		},
		{
			"trace with seeds",
			`{"workload": "trace", "trace": {"file": "` + tracePath + `"}, "seeds": [1, 2]}`,
			"a trace replay is fully deterministic",
		},
		{
			"trace without trace section",
			`{"workload": "trace"}`,
			`"trace"`,
		},
		{
			"trace file missing",
			`{"workload": "trace", "trace": {"file": ""}}`,
			"record one with medea-scenarios -record or medea-noc -record",
		},
		{
			"service with every endpoint a server",
			`{"workload": "service",
			  "service": {"width": 4, "height": 4, "servers": 16, "arrival_rates": [0.05]}}`,
			"must leave at least one client; use at most 15 servers",
		},
		{
			"service with more servers than endpoints",
			`{"workload": "service",
			  "service": {"width": 4, "height": 4, "servers": 20, "arrival_rates": [0.05]}}`,
			"must leave at least one client",
		},
		{
			"service with trace section",
			`{"workload": "service",
			  "service": {"width": 4, "height": 4, "servers": 2, "arrival_rates": [0.05]},
			  "trace": {"file": "` + tracePath + `"}}`,
			`"trace"`,
		},
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

// TestRecordFlagValidation: -record is a single-run mode; conflicting
// flags and multi-point scenarios are rejected before anything executes.
func TestRecordFlagValidation(t *testing.T) {
	dir := t.TempDir()
	single := filepath.Join(dir, "single.json")
	if err := os.WriteFile(single, []byte(`{
		"name": "rec", "workload": "noc-synthetic",
		"noc": {"width": 4, "height": 4, "patterns": ["uniform"], "rates": [0.1],
		        "measure_cycles": 300}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	multi := filepath.Join(dir, "multi.json")
	if err := os.WriteFile(multi, []byte(`{
		"name": "multi", "workload": "noc-synthetic",
		"noc": {"width": 4, "height": 4, "patterns": ["uniform", "tornado"], "rates": [0.1],
		        "measure_cycles": 300}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out.trace")
	bad := [][]string{
		{"-record", out, "-validate", single},    // record xor validate
		{"-record", out, "-shards", "2", single}, // record is in-process
		{"-record", out, single, single},         // one file only
		{"-record", out, multi},                  // one point only
	}
	for _, args := range bad {
		var sb strings.Builder
		if err := run(context.Background(), args, &sb); err == nil {
			t.Errorf("args %v accepted; want error", args)
		}
	}
}

// TestRecordReplayViaCLI: the CLI loop closes — record a single-point
// scenario, replay the capture through a trace scenario with the same
// name, and the rendered output is byte-identical.
func TestRecordReplayViaCLI(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "run.trace")
	recScenario := filepath.Join(dir, "rec.json")
	if err := os.WriteFile(recScenario, []byte(`{
		"name": "cli-roundtrip", "workload": "noc-synthetic",
		"noc": {"width": 4, "height": 4, "patterns": ["tornado"], "rates": [0.15],
		        "warmup_cycles": 50, "measure_cycles": 600},
		"seeds": [3], "output": "csv"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var src strings.Builder
	if err := run(context.Background(), []string{"-record", tracePath, recScenario}, &src); err != nil {
		t.Fatal(err)
	}
	replayScenario := filepath.Join(dir, "replay.json")
	if err := os.WriteFile(replayScenario, []byte(`{
		"name": "cli-roundtrip", "workload": "trace",
		"trace": {"file": "run.trace"},
		"output": "csv"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var rep strings.Builder
	if err := run(context.Background(), []string{"-cache", "mem", replayScenario}, &rep); err != nil {
		t.Fatal(err)
	}
	if src.String() != rep.String() {
		t.Errorf("replay output differs from the recorded run:\nsrc:\n%srep:\n%s", src.String(), rep.String())
	}
}
