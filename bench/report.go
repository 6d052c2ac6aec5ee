package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"

	"repro/internal/resultcache"
	"repro/internal/stats"
)

const resultsSchema = "medea-bench/v2"

// results is one run of the benchmark, and the shape of an -out file.
type results struct {
	Schema string `json:"schema"`
	// Valid is false for a -smoke run, whose numbers mean nothing.
	Valid       bool      `json:"valid"`
	Commit      string    `json:"commit"`
	CodeVersion string    `json:"code_version"`
	Go          string    `json:"go"`
	NProc       int       `json:"nproc"`
	GOMAXPROCS  int       `json:"gomaxprocs"`
	Seed        int64     `json:"seed"`
	Seconds     float64   `json:"seconds"`
	Traced      bool      `json:"traced"`
	PeakRSSMB   float64   `json:"peak_rss_mb"`
	HostCalibMS []float64 `json:"host_calib_ms"`

	Workloads map[string]*workloadResult `json:"workloads"`
	// PerLayer holds the probes' metrics (traced runs only); the
	// per-layer metrics observed on a workload itself are in its entry.
	PerLayer map[string]metric `json:"per_layer,omitempty"`

	layers *metricSet
}

type workloadResult struct {
	ResultRoot string            `json:"result_root"`
	Rounds     int               `json:"rounds"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Errors     []string          `json:"errors,omitempty"`
	RoundS     []float64         `json:"round_s"` // each pass's wall time, in order
	EndToEnd   map[string]metric `json:"end_to_end,omitempty"`
	PerLayer   map[string]metric `json:"per_layer,omitempty"`

	setupS []float64
	rounds []roundResult
	spent  float64 // seconds of measured passes so far
	layers *metricSet
}

func newResults(o options, procs int) *results {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return &results{
		Schema: resultsSchema, Valid: !o.smoke, Commit: commit, CodeVersion: resultcache.CodeVersion,
		Go: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: procs,
		Seed: o.seed, Seconds: o.seconds, Traced: o.traced,
		Workloads: map[string]*workloadResult{},
		layers:    newMetricSet(perLayer),
	}
}

func (r *results) workload(name string) *workloadResult {
	wr := r.Workloads[name]
	if wr == nil {
		wr = &workloadResult{layers: newMetricSet(perLayer)}
		r.Workloads[name] = wr
	}
	return wr
}

func (wr *workloadResult) add(rr roundResult) {
	wr.rounds = append(wr.rounds, rr)
	wr.spent += rr.dur.Seconds()
	wr.RoundS = append(wr.RoundS, rr.dur.Seconds())
	wr.Rounds++
	wr.Attempted += rr.attempted
	wr.Failed += rr.failed
	for _, e := range rr.errs {
		if len(wr.Errors) < 5 {
			wr.Errors = append(wr.Errors, e)
		}
	}
}

func (wr *workloadResult) medianRound() float64 { return median(wr.RoundS) }

// finish turns the collected rounds into the reported metrics and checks
// that every metric the tables promise for this kind of run is there.
func (r *results) finish() error {
	for name, wr := range r.Workloads {
		if r.Traced {
			wr.PerLayer = wr.layers.values
			if miss := wr.layers.missing(func(d metricDef) bool { return d.ofWorkload }); len(miss) > 0 {
				return fmt.Errorf("%s: per-layer metrics not measured: %v", name, miss)
			}
			continue
		}
		e2e := newMetricSet(endToEnd)
		var rate, latency []float64
		for _, rr := range wr.rounds {
			if rr.points > 0 && rr.dur > 0 {
				rate = append(rate, float64(rr.points)/rr.dur.Seconds())
			}
			if len(rr.missMS) > 0 {
				latency = append(latency, stats.Percentile(rr.missMS, 50))
			}
		}
		e2e.put("setup_s", summarize(wr.setupS))
		e2e.put("points_per_s", summarize(rate))
		e2e.put("miss_latency_p50_ms", summarize(latency))
		wr.EndToEnd = e2e.values
	}
	if r.Traced {
		r.PerLayer = r.layers.values
		if miss := r.layers.missing(func(d metricDef) bool { return !d.ofWorkload }); len(miss) > 0 {
			return fmt.Errorf("per-layer metrics not measured: %v", miss)
		}
	}
	return nil
}

// serveLayers derives the serve.* metrics that need real jobs from the
// serve-mixed rounds of a traced run: latencies and polls from what the
// clients saw in both rounds, spans from the traced one.
func serveLayers(out *metricSet, spans []span, rounds []roundResult, retainedBytes float64, before, after resultcache.Stats) {
	var miss, hit, rate []float64
	jobs, polls := 0, 0
	for _, rr := range rounds {
		miss = append(miss, rr.missMS...)
		hit = append(hit, rr.hitMS...)
		rate = append(rate, float64(rr.attempted)/rr.dur.Seconds())
		jobs += rr.attempted
		polls += rr.polls
	}
	pooled := func(v []float64, p float64) summary {
		return summary{Value: stats.Percentile(v, p), Q1: stats.Percentile(v, 25), Q3: stats.Percentile(v, 75), N: len(v)}
	}
	out.put("serve.miss_latency_p95_ms", pooled(miss, 95))
	out.put("serve.miss_latency_p99_ms", pooled(miss, 99))
	out.put("serve.hit_latency_p50_ms", pooled(hit, 50))
	out.put("serve.jobs_per_s", summarize(rate))
	out.put("serve.polls_per_job", one(float64(polls)/float64(jobs)))
	out.put("serve.retained_kb_per_job", one(retainedBytes/1e3/float64(jobs)))
	lookups := float64(after.Lookups() - before.Lookups())
	out.put("resultcache.hit_rate", one(float64(after.Hits+after.Dedups-before.Hits-before.Dedups)/lookups))

	out.put("serve.span.submit_ms", summarize(spanDurations(spans, "submit")))
	out.put("serve.span.wait_ms", summarize(spanDurations(spans, "wait")))
	out.put("serve.span.fetch_ms", summarize(spanDurations(spans, "fetch")))
	// Queue wait: from the POST leaving the client to the daemon's runner
	// taking the job, so it includes parsing and admission.
	submitted := map[string]int64{}
	for _, s := range spans {
		if s.Name == "submit" {
			submitted[s.Group] = s.Start
		}
	}
	var queued []float64
	for _, s := range spans {
		if t, ok := submitted[s.Group]; ok && s.Name == "serve.run" {
			queued = append(queued, float64(s.Start-t)/1e6)
		}
	}
	out.put("serve.queue_wait_ms_p50", summarize(queued))
}

// correct says whether the run's outputs were all right: nothing failed
// and every workload ran.
func (r *results) correct() bool {
	for _, wr := range r.Workloads {
		if wr.Failed > 0 || wr.Attempted == 0 {
			return false
		}
	}
	return len(r.Workloads) > 0
}

// contractLine is the one-object summary the acceptance driver reads from
// the last line of standard output: the end-to-end metrics of an untraced
// run, or every per-layer metric of a traced one.
func (r *results) contractLine(name string) string {
	wr := r.Workloads[name]
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, set := range []map[string]metric{wr.EndToEnd, wr.PerLayer, r.PerLayer} {
		for n, m := range set {
			metrics[n] = value{m.Value, m.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), wr.Attempted, wr.Failed, metrics})
	if err != nil {
		panic(err) // numbers and strings always marshal
	}
	return string(line)
}

func (r *results) write(path string) error {
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != resultsSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, resultsSchema)
	}
	return &r, nil
}

// print writes every metric by name with its unit, quartiles and sample
// count.
func (r *results) print(w io.Writer) {
	if !r.Valid {
		fmt.Fprintln(w, "SMOKE RUN: sizes are tiny and the numbers below mean nothing")
	}
	fmt.Fprintf(w, "bench %s  commit %s  code %s  %s  nproc %d  GOMAXPROCS %d  seed %d  traced %v\n",
		r.Schema, r.Commit, r.CodeVersion, r.Go, r.NProc, r.GOMAXPROCS, r.Seed, r.Traced)
	calib := summarize(r.HostCalibMS)
	fmt.Fprintf(w, "host: peak_rss_mb %.1f  host_calib_ms %.3f (q1 %.3f, q3 %.3f, n=%d; one per round, in the -out file)\n",
		r.PeakRSSMB, calib.Value, calib.Q1, calib.Q3, calib.N)
	line := func(name string, m metric) {
		fmt.Fprintf(w, "  %-34s %14.6g %-6s q1 %-12.6g q3 %-12.6g n=%d\n", name, m.Value, m.Unit, m.Q1, m.Q3, m.N)
	}
	for _, name := range workloadNames {
		wr := r.Workloads[name]
		if wr == nil {
			continue
		}
		fmt.Fprintf(w, "\n%s  rounds %d  attempted %d  failed %d  failed_ratio %g  result_root %s\n",
			name, wr.Rounds, wr.Attempted, wr.Failed, float64(wr.Failed)/float64(max(wr.Attempted, 1)), wr.ResultRoot)
		for _, e := range wr.Errors {
			fmt.Fprintln(w, "  error:", e)
		}
		for _, d := range endToEnd {
			if m, ok := wr.EndToEnd[d.name]; ok {
				line(d.name, m)
			}
		}
		for _, d := range perLayer {
			if m, ok := wr.PerLayer[d.name]; ok {
				line(d.name, m)
			}
		}
	}
	if len(r.PerLayer) > 0 {
		fmt.Fprintln(w, "\nper-layer probes")
		for _, d := range perLayer {
			if m, ok := r.PerLayer[d.name]; ok {
				line(d.name, m)
			}
		}
	}
}

// printTables is -list: the metric tables as the code holds them.
func printTables(w io.Writer) {
	direction := func(d metricDef) string {
		if d.higher {
			return "higher"
		}
		return "lower"
	}
	fmt.Fprintln(w, "end-to-end (every workload, tracing off)")
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-34s %-6s %-6s bound %.2f\n", d.name, d.unit, direction(d), d.bound)
	}
	fmt.Fprintln(w, "per-layer (traced run)")
	for _, d := range perLayer {
		notes := ""
		if d.exact {
			notes += " exact"
		}
		if d.ofWorkload {
			notes += " of-workload"
		}
		fmt.Fprintf(w, "  %-34s %-6s %-6s%s\n", d.name, d.unit, direction(d), notes)
	}
}
