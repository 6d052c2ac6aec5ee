package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain doubles as the worker entrypoint for the sharded CLI tests:
// the coordinator's default worker command re-execs this test binary
// (os.Executable) with -worker, and MEDEA_WORKER_MAIN routes that
// invocation into the real CLI instead of the test runner.
func TestMain(m *testing.M) {
	if os.Getenv("MEDEA_WORKER_MAIN") == "1" {
		if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestShardedCLIMatchesSingleProcess: -shards N through the full CLI
// (worker processes included) must produce byte-identical stdout to the
// single-process run.
func TestShardedCLIMatchesSingleProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	t.Setenv("MEDEA_WORKER_MAIN", "1")
	var direct strings.Builder
	if err := run(context.Background(), []string{"-format", "csv", "../../examples/scenarios/smoke.json"}, &direct); err != nil {
		t.Fatal(err)
	}
	var sharded strings.Builder
	if err := run(context.Background(), []string{"-format", "csv", "-shards", "3", "../../examples/scenarios/smoke.json"}, &sharded); err != nil {
		t.Fatal(err)
	}
	if sharded.String() != direct.String() {
		t.Errorf("sharded CSV diverges:\n--- sharded ---\n%s--- direct ---\n%s", sharded.String(), direct.String())
	}
}

// TestShardSectionDrivesSharding: a scenario file's "shard" section must
// fan the run out with no flags, and the output must still match the
// same sweep without the section.
func TestShardSectionDrivesSharding(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	t.Setenv("MEDEA_WORKER_MAIN", "1")
	base, err := os.ReadFile("../../examples/scenarios/smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	// Splice a shard section into the example (every example scenario is
	// a single JSON object).
	trimmed := strings.TrimRight(strings.TrimSpace(string(base)), "}")
	shardy := trimmed + `, "shard": {"shards": 2, "workers": 2}}`
	path := filepath.Join(t.TempDir(), "smoke-sharded.json")
	if err := os.WriteFile(path, []byte(shardy), 0o644); err != nil {
		t.Fatal(err)
	}
	var direct strings.Builder
	if err := run(context.Background(), []string{"-format", "csv", "../../examples/scenarios/smoke.json"}, &direct); err != nil {
		t.Fatal(err)
	}
	var sharded strings.Builder
	if err := run(context.Background(), []string{"-format", "csv", path}, &sharded); err != nil {
		t.Fatal(err)
	}
	if sharded.String() != direct.String() {
		t.Errorf("shard-section CSV diverges:\n--- sharded ---\n%s--- direct ---\n%s", sharded.String(), direct.String())
	}
}

func TestShardFlagValidation(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{"-shards", "-1", "../../examples/scenarios/smoke.json"}, &out)
	if err == nil || !strings.Contains(err.Error(), "-shards") {
		t.Errorf("-shards -1 = %v, want a flag error", err)
	}
}
