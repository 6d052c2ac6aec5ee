package scenario

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"testing"
)

// sameAsReference renders results through Render and through the
// reference writers (output_ref_test.go) in every format and reports any
// difference in bytes or in error.
func sameAsReference(t *testing.T, name string, results []Result) {
	t.Helper()
	for _, format := range []string{FormatTable, FormatCSV, FormatJSON} {
		got, err := Render(results, format)
		want, wantErr := refRender(results, format)
		if got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Errorf("%s, %s: Render differs from the reference\n--- got (error %v) ---\n%s--- want (error %v) ---\n%s",
				name, format, err, got, wantErr, want)
		}
	}
}

// TestRenderMatchesReference holds the column lists to the hand-written
// writers they replaced: every shipped example scenario, all of them
// concatenated, and hand-built edge rows must render to the same bytes in
// table, CSV and JSON.
func TestRenderMatchesReference(t *testing.T) {
	noc := Result{
		Scenario: "edge", Workload: "noc-synthetic", Topology: "torus", Router: "deflection",
		Pattern: "uniform", Rate: 0.25, Seed: 3, Bursty: true, Cycles: 5000, Delivered: 1234,
		Throughput: 0.123456789, MeanLatency: 12.3456, P99Latency: 40, DeflectionRate: 0.03125, PeakBuffer: 2,
	}
	jacobi := func(variant string, cores int) Result {
		return Result{
			Scenario: "edge", Workload: "jacobi", Variant: variant, Cores: cores, CacheKB: 8,
			Policy: "write-back", CyclesPerIter: int64(1000 / cores), MissRate: 0.0123456, AreaMM2: 12.345, Speedup: 1.5,
		}
	}
	matmul := Result{
		Scenario: "edge", Workload: "matmul", Variant: "pure-sm", Cores: 4, CacheKB: 2, Policy: "write-through",
		TotalCycles: 90000, TransferCycles: 1200, Speedup: 2.25, MPMMUBusy: 777, NoCFlits: 4242,
	}
	syncbench := Result{
		Scenario: "edge", Workload: "syncbench", Variant: "hybrid-full", Cores: 12, CacheKB: 16, Policy: "write-back",
		CyclesPerRound: 75, Speedup: 0.5, NoCFlits: 99,
	}
	service := Result{
		Scenario: "edge", Workload: "service", Topology: "mesh", Router: "xy", Servers: 4, ArrivalRate: 0.02,
		HotspotSkew: 0.9, Seed: 1, Cycles: 5000, Issued: 1200, Completed: 1190, InFlight: 10, Throttled: 3,
		Throughput: 0.0198, MeanQueue: 1.5, MeanNetOut: 6.25, MeanServer: 1, MeanNetBack: 6.5, MeanLatency: 15.25,
		P99Latency: 48, P99Server: 3, PeakBuffer: 7,
	}
	with := func(r Result, workload string) Result { r.Workload = workload; return r }

	for _, tc := range []struct {
		name string
		rows []Result
	}{
		{"nil", nil},
		{"empty", []Result{}},
		{"unknown workload", []Result{with(noc, "bogus"), with(noc, "")}},
		{"trace", []Result{with(noc, "trace")}},
		{"noc then trace", []Result{noc, with(noc, "trace"), noc}},
		{"single-variant jacobi", []Result{jacobi("hybrid-full", 2), jacobi("hybrid-full", 4)}},
		{"multi-variant jacobi", []Result{jacobi("hybrid-full", 2), jacobi("pure-sm", 2), jacobi("hybrid-sync", 8)}},
		{"interleaved kinds", []Result{
			noc, jacobi("hybrid-full", 2), jacobi("pure-sm", 4), matmul, matmul, noc, syncbench,
			service, with(noc, "trace"), with(noc, "bogus"), jacobi("pure-sm", 2), syncbench,
		}},
	} {
		sameAsReference(t, tc.name, tc.rows)
	}

	// What no results print is pinned, not only matched.
	for format, want := range map[string]string{
		FormatTable: "(no points)\n",
		FormatCSV:   "pattern,rate,seed,topology,router,bursty,cycles,delivered,throughput,mean_latency,p99_latency,deflection_rate,peak_buffer\n",
		FormatJSON:  "[]\n",
	} {
		if got, err := Render(nil, format); err != nil || got != want {
			t.Errorf("Render(nil, %s) = %q, %v; want %q", format, got, err, want)
		}
	}

	if testing.Short() {
		t.Skip("runs every example scenario")
	}
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no example scenarios found")
	}
	var all []Result
	for _, path := range paths {
		s, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		results, err := RunCtx(context.Background(), s)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		sameAsReference(t, filepath.Base(path), results)
		all = append(all, results...)
	}
	sameAsReference(t, "every example, concatenated", all)
}

// FuzzRender builds up to eight rows from the fuzzed numbers and from
// vocabularies indexed by the fuzzed bits — every workload name plus an
// unknown one and "", and strings with CSV, tab, HTML and invalid-UTF-8
// bytes — and holds Render to the reference in every format, errors
// included: a NaN or infinite float in a JSON column must fail JSON
// exactly where the reference fails.
func FuzzRender(f *testing.F) {
	f.Add(uint8(3), uint32(0x3), uint32(0x12345), int64(1), int64(7), 0.25, 12.5, 0.031)
	f.Add(uint8(8), uint32(0o76543210), uint32(0xfedcba98), int64(-3), int64(1<<40), 1e-7, 1e21, -0.0)
	f.Add(uint8(2), uint32(0), uint32(0), int64(2), int64(2), math.NaN(), 1.0, 2.0)
	f.Add(uint8(2), uint32(0o11), uint32(7), int64(2), int64(2), 1.0, math.Inf(1), math.Inf(-1))
	f.Fuzz(func(t *testing.T, n uint8, kinds, vocab uint32, i1, i2 int64, f1, f2, f3 float64) {
		workloads := append(WorkloadNames(), "bogus", "")
		words := []string{"", "uniform", "hybrid-full", "pure-sm", "torus", "a,b", "x\ty", "<&>\xff"}
		floats := []float64{f1, f2, f3}
		rows := make([]Result, n%9)
		for j := range rows {
			word := func(k int) string { return words[vocab>>((3*j+k)%30)&7] }
			fl := func(k int) float64 { return floats[(j+k)%3] }
			in := i1 + int64(j)*i2
			rows[j] = Result{
				Scenario: word(0), Workload: workloads[kinds>>(3*j)&7],
				Topology: word(1), Router: word(2), Pattern: word(3), Rate: fl(0), Seed: in, Bursty: vocab>>j&1 == 1,
				Cores: int(in), CacheKB: int(i2), Policy: word(4), Variant: word(5),
				Cycles: in, Delivered: i2, Throughput: fl(1), MeanLatency: fl(2), P99Latency: fl(0),
				DeflectionRate: fl(1), PeakBuffer: int(i1),
				CyclesPerIter: in, MissRate: fl(2), AreaMM2: fl(0), Speedup: fl(1),
				Servers: int(i2), ArrivalRate: fl(2), HotspotSkew: fl(0),
				Issued: in, Completed: i1, InFlight: i2, Throttled: in,
				MeanQueue: fl(1), MeanNetOut: fl(2), MeanServer: fl(0), MeanNetBack: fl(1), P99Server: fl(2),
				TotalCycles: in, TransferCycles: i1, CyclesPerRound: i2, MPMMUBusy: in, NoCFlits: i1,
			}
		}
		sameAsReference(t, "fuzzed rows", rows)
	})
}
