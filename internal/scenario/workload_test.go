package scenario

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestParseWorkloadRoundTrip(t *testing.T) {
	for _, k := range AllWorkloads() {
		got, err := ParseWorkload(k.String())
		if err != nil || got != k {
			t.Errorf("ParseWorkload(%q) = %v, %v", k.String(), got, err)
		}
		if got, err := ParseWorkload("  " + strings.ToUpper(k.String()) + " "); err != nil || got != k {
			t.Errorf("ParseWorkload upper(%q) = %v, %v", k, got, err)
		}
	}
	if got, err := ParseWorkload("noc_synthetic"); err != nil || got != WorkloadNoC {
		t.Errorf("ParseWorkload(noc_synthetic) = %v, %v", got, err)
	}
	if got, err := ParseWorkload("0"); err != nil || got != WorkloadJacobi {
		t.Errorf("ParseWorkload(0) = %v, %v", got, err)
	}
	for _, bad := range []string{"", "fft", "99", "-1"} {
		if _, err := ParseWorkload(bad); err == nil {
			t.Errorf("ParseWorkload(%q) accepted", bad)
		}
	}
	if !WorkloadJacobi.IsKernel() || !WorkloadMatmul.IsKernel() ||
		!WorkloadSyncbench.IsKernel() || WorkloadNoC.IsKernel() ||
		WorkloadTrace.IsKernel() || WorkloadService.IsKernel() {
		t.Error("IsKernel classification broken")
	}
	if len(WorkloadNames()) != 6 {
		t.Errorf("WorkloadNames = %v, want 6 kinds", WorkloadNames())
	}
}

// TestCrossWorkloadDeterminism is the determinism contract over the full
// workload x variant cross-product: running the same scenario twice (and
// serially vs in parallel) must yield identical Result rows for every
// workload and every variant it supports.
func TestCrossWorkloadDeterminism(t *testing.T) {
	scenarios := map[string]string{
		"kernels": `{
			"name": "det-kernels",
			"workloads": ["jacobi", "matmul"],
			"kernel": {"n": 12, "cores": [2, 3], "cache_kb": [4],
			           "variants": ["hybrid-full", "hybrid-sync", "pure-sm"]}
		}`,
		"syncbench": `{
			"name": "det-sync",
			"workload": "syncbench",
			"kernel": {"cores": [2, 4], "cache_kb": [8],
			           "variants": ["hybrid-full", "pure-sm"], "rounds": 3}
		}`,
		"noc": `{
			"name": "det-noc",
			"workload": "noc-synthetic",
			"noc": {"width": 4, "height": 4, "patterns": ["uniform"], "rates": [0.2],
			        "warmup_cycles": 100, "measure_cycles": 800},
			"seeds": [7]
		}`,
	}
	for name, src := range scenarios {
		t.Run(name, func(t *testing.T) {
			s := mustParse(t, src)
			first, err := RunCtx(context.Background(), s)
			if err != nil {
				t.Fatal(err)
			}
			if len(first) != s.NumPoints() {
				t.Fatalf("got %d results, scenario declares %d", len(first), s.NumPoints())
			}
			s.Parallelism = 1 // different interleaving must not change anything
			again, err := RunCtx(context.Background(), s)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(first, again) {
				t.Errorf("results differ between parallel and serial execution:\n%+v\nvs\n%+v", first, again)
			}
			third, err := RunCtx(context.Background(), mustParse(t, src))
			if err != nil {
				t.Fatal(err)
			}
			// The serial rerun mutated only Parallelism, which is not part
			// of any Result; a fresh parse must reproduce the rows too.
			if !reflect.DeepEqual(first, third) {
				t.Error("results differ across independent parses")
			}
			for _, r := range first {
				if r.Scenario == "" || r.Workload == "" {
					t.Errorf("row missing identity: %+v", r)
				}
			}
		})
	}
}

// TestWorkloadBlocksOrdered: the workloads axis emits one block per
// listed workload, in list order, each internally variant-outermost.
func TestWorkloadBlocksOrdered(t *testing.T) {
	s := mustParse(t, `{
		"name": "order",
		"workloads": ["syncbench", "matmul"],
		"kernel": {"n": 8, "cores": [2, 3], "cache_kb": [4],
		           "variants": ["hybrid-full", "pure-sm"], "rounds": 2}
	}`)
	results, err := RunCtx(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range results {
		got = append(got, fmt.Sprintf("%s/%s/%d", r.Workload, r.Variant, r.Cores))
	}
	want := []string{
		"syncbench/hybrid-full/2", "syncbench/hybrid-full/3",
		"syncbench/pure-sm/2", "syncbench/pure-sm/3",
		"matmul/hybrid-full/2", "matmul/hybrid-full/3",
		"matmul/pure-sm/2", "matmul/pure-sm/3",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("axis order:\ngot  %v\nwant %v", got, want)
	}
}
