package main

import (
	"context"
	"fmt"
	"os"
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

// TestShardedFig8MatchesSingleProcess: -fig 8 -shards N must render the
// exact same table as the single-process run — the figure path's half of
// the sharding golden (the scenario CLI's is in cmd/medea-scenarios).
func TestShardedFig8MatchesSingleProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fig8-quick sweep twice, once across worker processes")
	}
	var direct strings.Builder
	if err := run(context.Background(), []string{"-fig", "8"}, &direct); err != nil {
		t.Fatal(err)
	}
	t.Setenv("MEDEA_WORKER_MAIN", "1")
	var sharded strings.Builder
	if err := run(context.Background(), []string{"-fig", "8", "-shards", "2"}, &sharded); err != nil {
		t.Fatal(err)
	}
	if sharded.String() != direct.String() {
		t.Errorf("sharded Fig8 diverges:\n--- sharded ---\n%s--- direct ---\n%s", sharded.String(), direct.String())
	}
}

func TestShardsFlagValidation(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-fig", "kernel", "-shards", "2"}, &out); err == nil ||
		!strings.Contains(err.Error(), "-shards") {
		t.Errorf("-fig kernel -shards 2 = %v, want a -shards error", err)
	}
	if err := run(context.Background(), []string{"-fig", "8", "-shards", "-2"}, &out); err == nil ||
		!strings.Contains(err.Error(), "-shards") {
		t.Errorf("-shards -2 = %v, want a flag error", err)
	}
}
