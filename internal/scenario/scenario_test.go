package scenario

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/trace"
)

func mustParse(t *testing.T, src string) *Scenario {
	t.Helper()
	s, err := Parse([]byte(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return s
}

func parseErr(t *testing.T, src, wantSub string) {
	t.Helper()
	_, err := Parse([]byte(src))
	if err == nil {
		t.Fatalf("Parse accepted invalid scenario:\n%s", src)
	}
	if !strings.Contains(err.Error(), wantSub) {
		t.Errorf("error %q does not mention %q", err, wantSub)
	}
}

const validNoC = `{
	"name": "t",
	"workload": "noc-synthetic",
	"noc": {"width": 4, "height": 4, "patterns": ["uniform"], "rates": [0.1]}
}`

// TestRatesRejectNonFinite: JSON cannot carry NaN or Inf, but a Scenario
// built in Go can, and every rate axis must say "outside (0, 1]" to them
// as it does to 0 and 1.5.
func TestRatesRejectNonFinite(t *testing.T) {
	service := &Scenario{
		Workload: WorkloadService.String(),
		Service:  &ServiceConfig{Width: 4, Height: 4, Servers: 4},
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)} {
		synthetic := mustParse(t, validNoC)
		synthetic.NoC.Rates = []float64{0.1, bad}
		service.Service.ArrivalRates = []float64{0.1, bad}
		for _, s := range []*Scenario{synthetic, service} {
			if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "outside (0, 1]") {
				t.Errorf("%s rate %g: got %v, want an \"outside (0, 1]\" error", s.Workload, bad, err)
			}
		}
	}
	service.Service.ArrivalRates = []float64{0.1}
	if err := service.Validate(); err != nil {
		t.Errorf("the service scenario is invalid without the bad rate: %v", err)
	}
}

func TestParseValid(t *testing.T) {
	s := mustParse(t, validNoC)
	if s.Workload != WorkloadNoC.String() || s.NoC.Width != 4 {
		t.Errorf("bad decode: %+v", s)
	}
	if s.NumPoints() != 1 {
		t.Errorf("NumPoints = %d, want 1", s.NumPoints())
	}
}

func TestParseRejects(t *testing.T) {
	cases := []struct{ name, src, wantSub string }{
		{"unknown field", `{"workload": "noc-synthetic", "nocc": {}}`, "nocc"},
		{"missing workload", `{"noc": {}}`, `missing "workload"`},
		{"bad workload", `{"workload": "fft"}`, "unknown workload"},
		{"noc without section", `{"workload": "noc-synthetic"}`, `needs a "noc" section`},
		{"jacobi without section", `{"workload": "jacobi"}`, `needs a "kernel" section`},
		{"matmul without section", `{"workload": "matmul"}`, `needs a "kernel" section`},
		{"wrong section", `{"workload": "jacobi",
			"kernel": {"n": 30, "cores": [2], "cache_kb": [16]},
			"noc": {"width": 4, "height": 4, "patterns": ["uniform"], "rates": [0.1]}}`,
			"no effect"},
		{"bad pattern", `{"workload": "noc-synthetic",
			"noc": {"width": 4, "height": 4, "patterns": ["zigzag"], "rates": [0.1]}}`,
			"unknown pattern"},
		{"bit pattern on non-pow2", `{"workload": "noc-synthetic",
			"noc": {"width": 5, "height": 3, "patterns": ["bit-reversal"], "rates": [0.1]}}`,
			"power-of-two"},
		{"duplicate pattern", `{"workload": "noc-synthetic",
			"noc": {"width": 4, "height": 4, "patterns": ["uniform", "uniform"], "rates": [0.1]}}`,
			"twice"},
		{"bad rate", `{"workload": "noc-synthetic",
			"noc": {"width": 4, "height": 4, "patterns": ["uniform"], "rates": [1.5]}}`,
			"outside (0, 1]"},
		{"hotspot out of range", `{"workload": "noc-synthetic",
			"noc": {"width": 4, "height": 4, "patterns": ["hotspot"], "rates": [0.1], "hotspot_node": 16}}`,
			"hotspot_node"},
		{"bad burst", `{"workload": "noc-synthetic",
			"noc": {"width": 4, "height": 4, "patterns": ["uniform"], "rates": [0.1],
			        "burst": {"mean_on": 0, "mean_off": 10}}}`,
			"burst"},
		{"unknown burst field", `{"workload": "service",
			"service": {"width": 4, "height": 4, "servers": 2, "arrival_rates": [0.1],
			        "burst": {"mean_on": 5, "mean_of": 10}}}`,
			`unknown field "mean_of"`},
		{"seeds and replications", `{"workload": "noc-synthetic", "seeds": [1], "replications": 2,
			"noc": {"width": 4, "height": 4, "patterns": ["uniform"], "rates": [0.1]}}`,
			"not both"},
		{"jacobi with seeds", `{"workload": "jacobi", "seeds": [1, 2],
			"kernel": {"n": 30, "cores": [2], "cache_kb": [16]}}`,
			"deterministic"},
		{"jacobi without cores", `{"workload": "jacobi",
			"kernel": {"n": 30, "cores": [], "cache_kb": [16]}}`,
			"at least one compute-core count"},
		{"jacobi without caches", `{"workload": "jacobi",
			"kernel": {"n": 30, "cores": [2]}}`,
			"at least one L1 size"},
		{"jacobi without n", `{"workload": "jacobi",
			"kernel": {"cores": [2], "cache_kb": [16]}}`,
			`"kernel.n": jacobi: grid 0 too small`},
		// The bound is jacobi.Spec.Validate's, so a size validation
		// passes is one every point runs.
		{"jacobi n below the kernel's bound", `{"workload": "jacobi",
			"kernel": {"n": 3, "cores": [2], "cache_kb": [4]}}`,
			`"kernel.n": jacobi: grid 3 too small (need N >= 4)`},
		{"jacobi bad cores", `{"workload": "jacobi",
			"kernel": {"n": 30, "cores": [99], "cache_kb": [16]}}`,
			"2..15"},
		{"jacobi bad variant", `{"workload": "jacobi",
			"kernel": {"n": 30, "variant": "mpi", "cores": [2], "cache_kb": [16]}}`,
			"unknown variant"},
		{"jacobi bad policy", `{"workload": "jacobi",
			"kernel": {"n": 30, "cores": [2], "cache_kb": [16], "policies": ["lru"]}}`,
			"unknown cache policy"},
		{"bad output", `{"workload": "noc-synthetic", "output": "xml",
			"noc": {"width": 4, "height": 4, "patterns": ["uniform"], "rates": [0.1]}}`,
			"output format"},
		{"figure output on noc", `{"workload": "noc-synthetic", "output": "fig6",
			"noc": {"width": 4, "height": 4, "patterns": ["uniform"], "rates": [0.1]}}`,
			`"output": format "fig6" draws jacobi rows`},
		{"barrier output on jacobi", `{"workload": "jacobi", "output": "barrier",
			"kernel": {"n": 8, "cores": [2], "cache_kb": [4]}}`,
			`draws syncbench rows`},
		{"one variant as T-1", `{"workload": "jacobi", "output": "hybrid",
			"kernel": {"n": 60, "cores": [2], "cache_kb": [16]}}`,
			`"output": format "hybrid" draws 3 variant series`},
		{"three variants as Fig 6", `{"workload": "jacobi", "output": "fig6",
			"kernel": {"n": 60, "cores": [2], "cache_kb": [16], "variants": ["hybrid-full", "hybrid-sync", "pure-sm"]}}`,
			`"output": format "fig6" draws 1 variant series`},
		{"workload and workloads", `{"workload": "jacobi", "workloads": ["matmul"],
			"kernel": {"n": 16, "cores": [2], "cache_kb": [8]}}`,
			"not both"},
		{"noc in workloads", `{"workloads": ["jacobi", "noc-synthetic"],
			"kernel": {"n": 16, "cores": [2], "cache_kb": [8]}}`,
			"kernel workloads"},
		{"duplicate workload", `{"workloads": ["matmul", "matmul"],
			"kernel": {"n": 16, "cores": [2], "cache_kb": [8]}}`,
			"twice"},
		// The pre-workload-axis "jacobi" alias of the kernel section is
		// gone: the strict decoder rejects the key wherever it appears.
		{"jacobi section", `{"workload": "jacobi",
			"jacobi": {"n": 16, "cores": [2], "cache_kb": [8]}}`,
			`unknown field "jacobi"`},
		{"kernel and jacobi sections", `{"workload": "jacobi",
			"kernel": {"n": 16, "cores": [2], "cache_kb": [8]},
			"jacobi": {"n": 16, "cores": [2], "cache_kb": [8]}}`,
			`unknown field "jacobi"`},
		{"jacobi alias without jacobi", `{"workload": "matmul",
			"jacobi": {"n": 16, "cores": [2], "cache_kb": [8]}}`,
			`unknown field "jacobi"`},
		{"shard section", `{"workload": "jacobi",
			"kernel": {"n": 16, "cores": [2], "cache_kb": [8]},
			"shard": {"shards": 2}}`,
			`unknown field "shard"`},
		{"variant and variants", `{"workload": "jacobi",
			"kernel": {"n": 16, "variant": "pure-sm", "variants": ["hybrid-full"], "cores": [2], "cache_kb": [8]}}`,
			"not both"},
		{"duplicate variant", `{"workload": "jacobi",
			"kernel": {"n": 16, "variants": ["pure-sm", "pure-sm"], "cores": [2], "cache_kb": [8]}}`,
			"twice"},
		// A numeric axis or a policy listed twice runs the same points
		// twice; policies compare after parsing, so an alias repeats its
		// canonical name.
		{"duplicate policy alias", `{"workload": "jacobi",
			"kernel": {"n": 16, "cores": [2], "cache_kb": [4], "policies": ["wb", "write-back"]}}`,
			`"kernel.policies": WB listed twice`},
		{"duplicate cores", `{"workload": "jacobi",
			"kernel": {"n": 16, "cores": [2, 2], "cache_kb": [4]}}`,
			`"kernel.cores": 2 listed twice`},
		{"duplicate cache size", `{"workload": "jacobi",
			"kernel": {"n": 16, "cores": [2], "cache_kb": [4, 4]}}`,
			`"kernel.cache_kb": 4 listed twice`},
		{"duplicate rate", `{"workload": "noc-synthetic",
			"noc": {"width": 4, "height": 4, "patterns": ["uniform"], "rates": [0.1, 0.1]}}`,
			`"noc.rates": 0.1 listed twice`},
		{"duplicate seed", `{"workload": "noc-synthetic", "seeds": [1, 1],
			"noc": {"width": 4, "height": 4, "patterns": ["uniform"], "rates": [0.1]}}`,
			`"seeds": 1 listed twice`},
		{"duplicate measure window", `{"workload": "noc-synthetic",
			"noc": {"width": 4, "height": 4, "patterns": ["uniform"], "rates": [0.1], "measure_windows": [500, 500]}}`,
			`"noc.measure_windows": 500 listed twice`},
		{"duplicate arrival rate", `{"workload": "service",
			"service": {"width": 4, "height": 4, "servers": 2, "arrival_rates": [0.1, 0.1]}}`,
			`"service.arrival_rates": 0.1 listed twice`},
		{"bad variant in variants", `{"workload": "jacobi",
			"kernel": {"n": 16, "variants": ["mpi"], "cores": [2], "cache_kb": [8]}}`,
			"unknown variant"},
		{"syncbench hybrid-sync", `{"workloads": ["syncbench"],
			"kernel": {"variants": ["hybrid-sync"], "cores": [2], "cache_kb": [8]}}`,
			"no hybrid-sync variant"},
		{"matmul n out of range", `{"workload": "matmul",
			"kernel": {"n": 80, "cores": [2], "cache_kb": [8]}}`,
			`"kernel.n": matmul: N=80 out of supported range 2..64`},
		{"matmul n over its bound beside jacobi", `{"workloads": ["jacobi", "matmul"],
			"kernel": {"n": 65, "cores": [2], "cache_kb": [8]}}`,
			`"kernel.n": matmul: N=65`},
		{"n for syncbench only", `{"workload": "syncbench",
			"kernel": {"n": 16, "cores": [2], "cache_kb": [8]}}`,
			"no effect"},
		{"rounds without syncbench", `{"workload": "matmul",
			"kernel": {"n": 16, "rounds": 5, "cores": [2], "cache_kb": [8]}}`,
			"syncbench"},
		{"warmup without jacobi", `{"workload": "matmul",
			"kernel": {"n": 16, "warmup": 1, "cores": [2], "cache_kb": [8]}}`,
			"jacobi"},
		{"matmul with seeds", `{"workload": "matmul", "seeds": [1],
			"kernel": {"n": 16, "cores": [2], "cache_kb": [8]}}`,
			"deterministic"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { parseErr(t, c.src, c.wantSub) })
	}
}

func TestSeedList(t *testing.T) {
	s := mustParse(t, validNoC)
	if got := s.seedList(); !reflect.DeepEqual(got, []int64{1}) {
		t.Errorf("default seeds = %v, want [1]", got)
	}
	s.Replications = 3
	s.BaseSeed = 10
	if got := s.seedList(); !reflect.DeepEqual(got, []int64{10, 11, 12}) {
		t.Errorf("replicated seeds = %v", got)
	}
	s.Seeds = []int64{5, 9}
	if got := s.seedList(); !reflect.DeepEqual(got, []int64{5, 9}) {
		t.Errorf("explicit seeds = %v", got)
	}
}

func TestRunNoCDeterministicAndOrdered(t *testing.T) {
	src := `{
		"name": "det",
		"workload": "noc-synthetic",
		"noc": {"width": 4, "height": 4,
		        "patterns": ["bit-complement", "shuffle", "bit-reversal", "tornado"],
		        "rates": [0.1, 0.3], "warmup_cycles": 200, "measure_cycles": 1500},
		"seeds": [3, 8]
	}`
	s := mustParse(t, src)
	if s.NumPoints() != 16 {
		t.Fatalf("NumPoints = %d, want 16", s.NumPoints())
	}
	r1, err := RunCtx(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	s.Parallelism = 1 // different interleaving must not change anything
	r2, err := RunCtx(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Error("results differ between parallel and serial execution")
	}
	// Axis order: patterns outermost, then rates, then seeds.
	if r1[0].Pattern != "bit-complement" || r1[0].Rate != 0.1 || r1[0].Seed != 3 {
		t.Errorf("first point = %+v", r1[0])
	}
	if r1[1].Seed != 8 || r1[2].Rate != 0.3 || r1[4].Pattern != "shuffle" {
		t.Errorf("axis order broken: %+v %+v %+v", r1[1], r1[2], r1[4])
	}
	for _, r := range r1 {
		if r.Delivered <= 0 || r.Throughput <= 0 || r.MeanLatency <= 0 {
			t.Errorf("empty metrics in %+v", r)
		}
		if r.P99Latency < r.MeanLatency {
			t.Errorf("p99 %.1f below mean %.1f in %+v", r.P99Latency, r.MeanLatency, r)
		}
	}
}

func TestRunBurstyScenario(t *testing.T) {
	src := `{
		"name": "bursty",
		"workload": "noc-synthetic",
		"noc": {"width": 4, "height": 4, "patterns": ["uniform"], "rates": [0.4],
		        "burst": {"mean_on": 25, "mean_off": 75}, "measure_cycles": 4000}
	}`
	bursty, err := RunCtx(context.Background(), mustParse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	again, err := RunCtx(context.Background(), mustParse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bursty, again) {
		t.Error("bursty scenario not deterministic per seed")
	}
	plain, err := RunCtx(context.Background(), mustParse(t, strings.Replace(src,
		`"burst": {"mean_on": 25, "mean_off": 75}, `, "", 1)))
	if err != nil {
		t.Fatal(err)
	}
	if !bursty[0].Bursty || plain[0].Bursty {
		t.Error("Bursty flag not propagated")
	}
	ratio := bursty[0].Throughput / plain[0].Throughput
	if ratio < 0.15 || ratio > 0.40 {
		t.Errorf("bursty/plain throughput ratio %.3f, want ~0.25 (duty cycle)", ratio)
	}
}

func TestRenderFormats(t *testing.T) {
	s := mustParse(t, validNoC)
	results, err := RunCtx(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	table, err := Render(results, "")
	if err != nil || !strings.Contains(table, "pattern") || !strings.Contains(table, "uniform") {
		t.Errorf("table render: %v\n%s", err, table)
	}
	csv, err := Render(results, FormatCSV)
	if err != nil || !strings.HasPrefix(csv, "pattern,rate,seed,") {
		t.Errorf("csv render: %v\n%s", err, csv)
	}
	js, err := Render(results, FormatJSON)
	if err != nil || !strings.Contains(js, `"workload": "noc-synthetic"`) {
		t.Errorf("json render: %v\n%s", err, js)
	}
	if _, err := Render(results, "xml"); err == nil {
		t.Error("unknown format accepted")
	}
}

// TestRouteTableBound holds every section that builds a fabric — noc,
// service and trace — to the route-table bound: a 100x100 grid (4.5 GiB
// of routes per point) and the first square grid over 64 MiB (35x35) are
// rejected with the arithmetic, while 34x34 and the 8x8 example parse.
func TestRouteTableBound(t *testing.T) {
	nocGrid := func(w, h int) string {
		return fmt.Sprintf(`{"workload": "noc-synthetic",
			"noc": {"width": %d, "height": %d, "patterns": ["uniform"], "rates": [0.01]}}`, w, h)
	}
	const want = "10000 switches x 10000 endpoints x 48 B = 4577 MiB of route tables per point, over the 64 MiB limit"
	parseErr(t, nocGrid(100, 100), want)
	parseErr(t, nocGrid(35, 35), "route tables")
	mustParse(t, nocGrid(34, 34))
	parseErr(t, `{"workload": "service",
		"service": {"width": 100, "height": 100, "servers": 1, "arrival_rates": [0.01]}}`, want)

	path := filepath.Join(t.TempDir(), "wide.trace")
	if err := trace.New(trace.Header{Width: 100, Height: 100, Topology: "torus", Router: "deflection", Measure: 1}).Save(path); err != nil {
		t.Fatal(err)
	}
	parseErr(t, `{"workload": "trace", "trace": {"file": "`+path+`"}}`, want)
	parseErr(t, `{"workload": "trace", "trace": {"file": "`+path+`", "topologies": ["mesh"]}}`, "route tables")

	if _, err := Load("../../examples/scenarios/topology-ablation.json"); err != nil {
		t.Errorf("the 8x8 example: %v", err)
	}
}
