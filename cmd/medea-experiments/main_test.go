package main

import (
	"context"
	"strings"
	"testing"
)

// TestKernelFigRuns drives the K-1 experiment through the CLI, filtered
// to the fast syncbench kernel so the test stays cheap, and checks both
// variants show up in the rendered table.
func TestKernelFigRuns(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-fig", "kernel", "-workloads", "syncbench"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"K-1", "syncbench", "hybrid-full", "pure-sm", "summary"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("kernel table missing %q:\n%s", want, out.String())
		}
	}
}

// TestBarrierFigSharesKernelPath: -fig barrier is the kernel ablation
// restricted to syncbench, so its output carries the same schema.
func TestBarrierFigSharesKernelPath(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-fig", "barrier"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"K-1", "syncbench", "pure-sm"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("barrier table missing %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "jacobi\t") || strings.Contains(out.String(), "matmul") {
		t.Errorf("barrier table swept more than the syncbench kernel:\n%s", out.String())
	}
}

// TestHelpExitsClean: -h prints usage and returns nil (exit 0), like the
// other binaries.
func TestHelpExitsClean(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-h"}, &out); err != nil {
		t.Errorf("-h returned %v, want nil", err)
	}
}

// TestUsageErrors: invalid workload/variant combinations and misplaced
// flags must fail before any sweep runs.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantSub string
	}{
		{"unknown fig", []string{"-fig", "42"}, "unknown -fig"},
		{"positional args", []string{"-fig", "kernel", "extra"}, "unexpected arguments"},
		{"workloads without kernel fig", []string{"-fig", "8", "-workloads", "matmul"}, "-fig kernel"},
		{"variants without kernel fig", []string{"-fig", "barrier", "-variants", "pure-sm"}, "-fig kernel"},
		{"unknown workload", []string{"-fig", "kernel", "-workloads", "noc-synthetic"}, "unknown kernel"},
		{"duplicate workload", []string{"-fig", "kernel", "-workloads", "matmul,matmul"}, "twice"},
		{"unknown variant", []string{"-fig", "kernel", "-variants", "mpi"}, "unknown variant"},
		{"syncbench hybrid-sync", []string{"-fig", "kernel", "-workloads", "syncbench", "-variants", "hybrid-sync"}, "hybrid-sync"},
		{"negative parallelism", []string{"-fig", "8", "-parallelism", "-2"}, "-parallelism must be >= 0"},
		{"negative workers", []string{"-fig", "8", "-shards", "2", "-workers", "-2"}, "-workers must be >= 0"},
		{"workers without shards", []string{"-fig", "8", "-workers", "2"}, "-workers only applies to a sharded run"},
		{"worker-cmd without shards", []string{"-fig", "8", "-worker-cmd", "medea-experiments -worker"}, "-worker-cmd only applies to a sharded run"},
		{"workers with shards 0", []string{"-fig", "8", "-shards", "0", "-workers", "2"}, "-workers only applies to a sharded run"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out strings.Builder
			err := run(context.Background(), c.args, &out)
			if err == nil {
				t.Fatalf("args %v accepted", c.args)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("error %q does not mention %q", err, c.wantSub)
			}
		})
	}
}
