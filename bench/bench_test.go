package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestMain doubles as the shard worker the shard.proc_spawn_ms probe
// re-executes, as main does.
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == shardWorkerFlag {
		os.Exit(shardWorker())
	}
	os.Exit(m.Run())
}

type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

func asDeclared(table []metricDef) []declaredMetric {
	out := make([]declaredMetric, len(table))
	for i, d := range table {
		out[i] = declaredMetric{Name: d.name, Unit: d.unit, Better: "lower", Bound: d.bound}
		if d.higher {
			out[i].Better = "higher"
		}
	}
	return out
}

// BENCHMARK.json is what the acceptance driver reads and the tables in
// metrics.go are what the program reports by; they must say the same.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	d := readDeclared(t)
	if got, want := d.EndToEnd, asDeclared(endToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end:\n got %+v\nwant %+v", got, want)
	}
	if got, want := d.PerLayer, asDeclared(perLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer differs from metrics.go (%d entries, want %d)", len(got), len(want))
	}
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}

	if len(d.EndToEnd) > 16 || len(d.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics; the caps are 16 and 128", len(d.EndToEnd), len(d.PerLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	setup := false
	for _, m := range append(append([]declaredMetric(nil), d.EndToEnd...), d.PerLayer...) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
			t.Errorf("metric %q unit %q: outside the allowed alphabet", m.Name, m.Unit)
		}
		if seen[m.Name] {
			t.Errorf("metric %q declared twice", m.Name)
		}
		seen[m.Name] = true
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("metric %q: bound %v outside 0..0.25", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// smokeRun runs the benchmark in process with the tiny size table and
// returns what it printed and the -out file.
func smokeRun(t *testing.T, args ...string) (string, *results) {
	t.Helper()
	dir := t.TempDir()
	out := filepath.Join(dir, "out.json")
	var stdout, stderr bytes.Buffer
	args = append([]string{"-smoke", "-out", out}, args...)
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("bench %v: exit %d\n%s%s", args, code, stdout.String(), stderr.String())
	}
	res, err := readResults(out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Valid {
		t.Error("a smoke run must be stamped invalid")
	}
	return stdout.String(), res
}

func checkMetrics(t *testing.T, where string, got map[string]metric, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, want %d", where, len(got), len(want))
	}
	for _, d := range want {
		m, ok := got[d.name]
		switch {
		case !ok:
			t.Errorf("%s: %s not reported", where, d.name)
		case m.Unit != d.unit:
			t.Errorf("%s: %s in %q, want %q", where, d.name, m.Unit, d.unit)
		case m.N < 1:
			t.Errorf("%s: %s has no samples", where, d.name)
		}
	}
}

func filterDefs(keep func(metricDef) bool) []metricDef {
	var out []metricDef
	for _, d := range perLayer {
		if keep(d) {
			out = append(out, d)
		}
	}
	return out
}

func TestSmokeUntracedReportsEveryEndToEndMetric(t *testing.T) {
	_, res := smokeRun(t, "-trace", "0")
	for _, name := range workloadNames {
		wr := res.Workloads[name]
		if wr == nil {
			t.Fatalf("%s did not run", name)
		}
		checkMetrics(t, name, wr.EndToEnd, endToEnd)
		if wr.Failed != 0 || wr.Attempted == 0 || wr.ResultRoot == "" || wr.Rounds < smokeSizes.minRounds {
			t.Errorf("%s: attempted %d, failed %d, rounds %d, root %q", name, wr.Attempted, wr.Failed, wr.Rounds, wr.ResultRoot)
		}
		for n, m := range wr.EndToEnd {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v; an end-to-end metric is never 0", name, n, m.Value)
			}
		}
	}
	if len(res.PerLayer) != 0 {
		t.Error("an untraced run reported per-layer metrics")
	}
}

func TestSmokeTracedReportsEveryPerLayerMetricAndAWellFormedSpanTree(t *testing.T) {
	spansFile := filepath.Join(t.TempDir(), "spans.json")
	_, res := smokeRun(t, "-trace", "1", "-spans", spansFile)
	checkMetrics(t, "probes", res.PerLayer, filterDefs(func(d metricDef) bool { return !d.ofWorkload }))
	ofWorkload := filterDefs(func(d metricDef) bool { return d.ofWorkload })
	for _, name := range workloadNames {
		wr := res.Workloads[name]
		if wr == nil {
			t.Fatalf("%s did not run", name)
		}
		checkMetrics(t, name, wr.PerLayer, ofWorkload)
		if len(wr.EndToEnd) != 0 {
			t.Errorf("%s: a traced run reported end-to-end metrics", name)
		}
	}
	if got := res.Workloads["noc-saturated"].PerLayer["sim.cycles_skipped"].Value; got != 0 {
		t.Errorf("noc-saturated fast-forwarded %v cycles", got)
	}
	if got := res.Workloads["noc-idle"].PerLayer["sim.skipped_ratio"].Value; got <= minIdleSkipped {
		t.Errorf("noc-idle skipped only %v of its cycles", got)
	}

	data, err := os.ReadFile(spansFile)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if err := checkSpans(file.Spans); err != nil {
		t.Error(err)
	}
	names := map[string]bool{}
	for id, self := range selfTimes(file.Spans) {
		names[file.Spans[id].Name] = true
		sp := file.Spans[id]
		if self < 0 {
			t.Errorf("span %d (%s): self time %d < 0", id, sp.Name, self)
		}
		// A span that exists to hold steps is all but covered by them.
		if (sp.Name == "pass" || sp.Name == "jacobi.RunCtx") && 2*self > sp.End-sp.Start {
			t.Errorf("span %d (%s): %d of its %d ns are outside its steps", id, sp.Name, self, sp.End-sp.Start)
		}
	}
	for _, want := range []string{"pass", "scenario.Parse", "scenario.RunCtx", "scenario.Render", "scenario.MerkleRoot",
		"job", "submit", "wait", "fetch", "serve.run", "jacobi.RunCtx", "core.Build", "core.System.RunCtx", "jacobi.Verify",
		"noc.rig_build", "noc.MeasureCtx"} {
		if !names[want] {
			t.Errorf("no %q span recorded", want)
		}
	}
}

// The last line of a one-workload run is the object the acceptance
// driver parses.
func TestContractLine(t *testing.T) {
	for _, tc := range []struct {
		trace string
		want  int
	}{{"0", len(endToEnd)}, {"1", len(perLayer)}} {
		stdout, _ := smokeRun(t, "-workload", "noc-idle", "-seed", "7", "-seconds", "20", "-trace", tc.trace)
		lines := strings.Split(strings.TrimSpace(stdout), "\n")
		var line struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Failed    int  `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("trace %s: last line is not the contract object: %v", tc.trace, err)
		}
		if !line.Correct || line.Attempted < 1 || line.Failed != 0 || len(line.Metrics) != tc.want {
			t.Errorf("trace %s: correct %v attempted %d failed %d, %d metrics (want %d)",
				tc.trace, line.Correct, line.Attempted, line.Failed, len(line.Metrics), tc.want)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "no-such"}, {"-trace", "2"}, {"-seconds", "0"}, {"stray"}, {"-compare", "one.json"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("bench %v: exit %d, printed %q; want exit 2 and nothing on stdout", args, code, stdout.String())
		}
	}
}

// ---- generator ----

func TestSameSeedSameInputs(t *testing.T) {
	a, b := generate(1, fullSizes), generate(1, fullSizes)
	if !bytes.Equal(a.kernel, b.kernel) || !bytes.Equal(a.saturated, b.saturated) || !bytes.Equal(a.idle, b.idle) {
		t.Error("the same seed generated different batch inputs")
	}
	for r := 0; r < 3; r++ {
		ra, rb := a.round(r), b.round(r)
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("round %d differs between two generations of one seed", r)
		}
		for i := range ra {
			if !bytes.Equal(a.job("j", ra[i].trafficSeed), b.job("j", rb[i].trafficSeed)) {
				t.Fatalf("round %d job %d: bodies differ", r, i)
			}
		}
	}
}

func TestSeedsChangeInputsButNotTheirShape(t *testing.T) {
	dev, held := generate(1, fullSizes), generate(2, fullSizes)
	if dev.l1 == held.l1 {
		t.Errorf("development and held-back seed share the L1 pair %v", dev.l1)
	}
	if dev.trafficSeed == held.trafficSeed || dev.freshSeed == held.freshSeed || dev.popularSeed == held.popularSeed {
		t.Error("development and held-back seed share a traffic seed")
	}
	if reflect.DeepEqual(dev.round(1), held.round(1)) {
		t.Error("development and held-back seed share a job mix")
	}

	for seed := int64(0); seed < 50; seed++ {
		in := generate(seed, fullSizes)
		if in.trafficSeed <= 0 || in.popularSeed <= 0 {
			t.Errorf("seed %d: degenerate traffic seeds %d, %d", seed, in.trafficSeed, in.popularSeed)
		}
		seen := map[int64]bool{}
		for r := 0; r < 4; r++ {
			hits := 0
			for _, j := range in.round(r) {
				switch {
				case j.hit():
					hits++
					if j.trafficSeed != in.popularSeed+int64(j.popular) || j.popular >= fullSizes.servePopular {
						t.Fatalf("seed %d: hit with popular %d carries seed %d", seed, j.popular, j.trafficSeed)
					}
				case seen[j.trafficSeed] || j.trafficSeed < in.popularSeed+int64(fullSizes.servePopular):
					t.Fatalf("seed %d round %d: fresh seed %d repeats or falls among the popular ones", seed, r, j.trafficSeed)
				default:
					seen[j.trafficSeed] = true
				}
			}
			if want := int(hitShare*float64(fullSizes.serveJobs) + 0.5); hits != want {
				t.Fatalf("seed %d round %d: %d hits, want exactly %d", seed, r, hits, want)
			}
		}
	}
}

// ---- statistics, spans, compare ----

func TestQuartilesFollowTheExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of 1,2 = %v %v %v", q1, q2, q3)
	}
}

func TestSelfTimeSubtractsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: noSpan, Name: "job", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "submit", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "serve.run", Start: 20, End: 70}, // overlaps submit and wait
		{ID: 3, Parent: 0, Name: "wait", Start: 30, End: 80},
	}
	if err := checkSpans(spans); err != nil {
		t.Fatal(err)
	}
	if self := selfTimes(spans); self[0] != 30 || self[2] != 50 {
		t.Errorf("self times %v; want 30 for the job (100 less the 70 its children cover) and 50 for a leaf", self)
	}
	spans[3].End = 0
	if checkSpans(spans) == nil {
		t.Error("an open span passed the check")
	}
	spans[3].End = 120
	if checkSpans(spans) == nil {
		t.Error("a child outliving its parent passed the check")
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(rate, q1, q3 float64, root string, cycles float64) *results {
		return &results{Schema: resultsSchema, Valid: true, Seed: 1,
			Workloads: map[string]*workloadResult{"noc-idle": {
				ResultRoot: root, Attempted: 1,
				EndToEnd: map[string]metric{"points_per_s": {summary: summary{Value: rate, Q1: q1, Q3: q3, N: 9}, Unit: "1/s"}},
				PerLayer: map[string]metric{"sim.cycles_ticked": {summary: one(cycles), Unit: "count", Exact: true}},
			}}}
	}
	base := mk(100, 99, 101, "r", 5)
	for _, tc := range []struct {
		name string
		b    *results
		code int
		want string
	}{
		{"same", mk(100, 99, 101, "r", 5), 0, "ok"},
		{"within the bound", mk(85, 84, 86, "r", 5), 0, "ok"},
		{"better", mk(150, 149, 151, "r", 5), 0, "ok"},
		{"breach", mk(70, 69, 71, "r", 5), 1, "BREACH"},
		{"too noisy to tell", mk(70, 55, 85, "r", 5), 0, "unresolved"},
		{"exact count moved", mk(100, 99, 101, "r", 6), 1, "exact count differs"},
		{"results moved", mk(100, 99, 101, "other", 5), 1, "result_root differs"},
	} {
		var out bytes.Buffer
		if code := compare(base, tc.b, &out); code != tc.code || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: exit %d (want %d), output lacks %q:\n%s", tc.name, code, tc.code, tc.want, out.String())
		}
	}
}
