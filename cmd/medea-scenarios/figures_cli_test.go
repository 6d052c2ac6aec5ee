package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestKernelFigRuns draws K-1 through the CLI from the fast syncbench
// kernel's file, so the test stays cheap, and checks both variants and
// the per-kernel summary show up in the rendered table.
func TestKernelFigRuns(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-format", "kernel", "../../examples/figures/barrier.json"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"K-1", "syncbench", "hybrid-full", "pure-sm", "summary"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("kernel table missing %q:\n%s", want, out.String())
		}
	}
}

// TestBarrierFigSharesKernelPath: S-1 is the kernel ablation restricted
// to syncbench, so barrier.json's own "output" draws the K-1 schema and
// sweeps no other kernel.
func TestBarrierFigSharesKernelPath(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"../../examples/figures/barrier.json"}, &out); err != nil {
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

// TestUsageErrors: a figure run with an unknown format, a format that
// does not fit the file's kernels, an invalid workload/variant
// combination or a negative count must fail before any sweep runs. The
// context is canceled before the call, so a sweep that started would
// fail with a cancellation instead of the usage error. A file is
// written only for the cases that name one; the others run a shipped
// figure file.
func TestUsageErrors(t *testing.T) {
	const kernel = `"kernel": {"n": 8, "cores": [2], "cache_kb": [4]`
	cases := []struct {
		name    string
		json    string // the scenario file; "" runs the args as given
		args    []string
		wantSub string
	}{
		{"unknown fig", "", []string{"-format", "fig42", "../../examples/figures/fig6.json"}, "-format"},
		{"workloads without kernel fig", `{"workloads": ["matmul"], ` + kernel + `}}`, []string{"-format", "fig8"}, "draws"},
		{"variants without kernel fig", "", []string{"-format", "barrier", "../../examples/figures/kernel-jacobi-matmul-3variants.json"}, "draws"},
		{"unknown workload", `{"workloads": ["jacobi", "fft"], ` + kernel + `}}`, nil, "unknown workload"},
		{"duplicate workload", `{"workloads": ["matmul", "matmul"], ` + kernel + `}}`, nil, "twice"},
		{"unknown variant", `{"workloads": ["jacobi"], ` + kernel + `, "variants": ["mpi"]}}`, nil, "unknown variant"},
		{"syncbench hybrid-sync", `{"workloads": ["syncbench"], "kernel": {"cores": [2], "cache_kb": [4], "variants": ["hybrid-sync"]}}`, nil, "hybrid-sync"},
		{"syncbench hybrid-sync after other kernels", `{"workloads": ["jacobi", "matmul", "syncbench"], ` + kernel + `, "variants": ["hybrid-sync"]}}`, nil, "hybrid-sync"},
		{"negative parallelism", "", []string{"-parallelism", "-2", "../../examples/scenarios/fig8-quick.json"}, "-parallelism must be >= 0"},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			args := c.args
			if c.json != "" {
				path := filepath.Join(t.TempDir(), "bad.json")
				if err := os.WriteFile(path, []byte(c.json), 0o644); err != nil {
					t.Fatal(err)
				}
				args = append(append([]string{}, c.args...), path)
			}
			var out strings.Builder
			err := run(ctx, args, &out)
			if err == nil {
				t.Fatalf("args %v accepted", args)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("error %q does not mention %q", err, c.wantSub)
			}
		})
	}
}
