package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFigsGolden holds every experiment's Quick output to the bytes in
// testdata/*.golden, recorded from the hand-coded experiments that
// preceded the figure table: the tables are the reproduction, so a moved
// digit, a reordered row or a changed caption fails here.
func TestFigsGolden(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"fig-all", []string{"-fig", "all"}},
		{"fig-6", []string{"-fig", "6"}},
		{"fig-7", []string{"-fig", "7"}},
		{"fig-8", []string{"-fig", "8"}},
		{"fig-9", []string{"-fig", "9"}},
		{"fig-hybrid", []string{"-fig", "hybrid"}},
		{"fig-sync", []string{"-fig", "sync"}},
		{"fig-barrier", []string{"-fig", "barrier"}},
		{"fig-kernel", []string{"-fig", "kernel"}},
		{"kernel-jacobi-matmul-3variants", []string{"-fig", "kernel",
			"-workloads", "jacobi,matmul", "-variants", "hybrid-full,hybrid-sync,pure-sm"}},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			// -fig all covers figs 6-9, hybrid and sync; the single-figure
			// runs repeat those sweeps.
			if testing.Short() && c.golden != "fig-all" && c.golden != "fig-barrier" {
				t.Skip("single-figure sweep in short mode")
			}
			want, err := os.ReadFile(filepath.Join("testdata", c.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			if err := run(context.Background(), c.args, &out); err != nil {
				t.Fatal(err)
			}
			if out.String() != string(want) {
				t.Errorf("%v diverges from testdata/%s.golden:\n--- got ---\n%s--- want ---\n%s",
					c.args, c.golden, out.String(), want)
			}
		})
	}
}

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
// flags must fail before any sweep runs. The context is canceled before
// the call, so a sweep that started would fail with a cancellation
// instead of the usage error.
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
		{"syncbench hybrid-sync after other kernels", []string{"-fig", "kernel", "-workloads", "jacobi,matmul,syncbench", "-variants", "hybrid-sync"}, "hybrid-sync"},
		{"negative parallelism", []string{"-fig", "8", "-parallelism", "-2"}, "-parallelism must be >= 0"},
		// Sharded figure grids are a jacobi scenario file run by
		// medea-scenarios -shards N; this binary has no shard flags.
		{"negative workers", []string{"-fig", "8", "-shards", "2", "-workers", "-2"}, "flag provided but not defined: -shards"},
		{"workers without shards", []string{"-fig", "8", "-workers", "2"}, "flag provided but not defined: -workers"},
		{"worker-cmd without shards", []string{"-fig", "8", "-worker-cmd", "medea-experiments -worker"}, "flag provided but not defined: -worker-cmd"},
		{"workers with shards 0", []string{"-fig", "8", "-shards", "0", "-workers", "2"}, "flag provided but not defined: -shards"},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out strings.Builder
			err := run(ctx, c.args, &out)
			if err == nil {
				t.Fatalf("args %v accepted", c.args)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("error %q does not mention %q", err, c.wantSub)
			}
		})
	}
}
