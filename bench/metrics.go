package main

import "fmt"

// metricDef is one row of the benchmark's metric table. BENCHMARK.json at
// the repository root lists the same names, units and bounds for the
// acceptance driver; bench_test.go holds the two together.
type metricDef struct {
	name   string
	unit   string
	higher bool    // which direction is better
	bound  float64 // end-to-end only: the share of the parent's median it may worsen by
	// exact marks a count the deterministic simulator repeats bit for
	// bit for one seed; -compare fails when one differs.
	exact bool
	// ofWorkload marks a per-layer metric observed on the selected
	// workload itself, so it differs from one workload's traced run to
	// the next; the others come from fixed probes.
	ofWorkload bool
}

// The end-to-end metrics, measured with tracing off, each defined on all
// four workloads. A request is the whole sweep on the batch workloads and
// one job on serve-mixed.
//
// Every bound is the widest the acceptance driver allows. Ten runs with
// ten seeds on the two-CPU development host spread by 10-20 % (quartile
// distance over median): the host has stretches of minutes in which all
// four workloads run 15-30 % slower, and a benchmark whose own spread
// exceeds its bound is refused. README.md has the numbers.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "points_per_s", unit: "1/s", higher: true, bound: 0.25},
	{name: "miss_latency_p50_ms", unit: "ms", bound: 0.25},
}

var loads = []float64{0, 0.05, 0.40}

// perLayer lists every per-layer metric, in the order they print. Names
// are layer.metric.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var d []metricDef
	add := func(unit string, names ...string) {
		for _, n := range names {
			d = append(d, metricDef{name: n, unit: unit})
		}
	}
	rate := func(unit string, names ...string) {
		for _, n := range names {
			d = append(d, metricDef{name: n, unit: unit, higher: true})
		}
	}
	exact := func(names ...string) {
		for _, n := range names {
			d = append(d, metricDef{name: n, unit: "count", exact: true})
		}
	}
	ofWorkload := func(unit string, exact bool, names ...string) {
		for _, n := range names {
			d = append(d, metricDef{name: n, unit: unit, exact: exact, ofWorkload: true})
		}
	}

	ofWorkload("count", true, "sim.cycles_ticked", "sim.cycles_skipped")
	ofWorkload("ratio", true, "sim.skipped_ratio")
	ofWorkload("MB", false, "scenario.alloc_mb_per_pass", "retained_heap_mb")
	ofWorkload("ratio", false, "trace_overhead_ratio")

	add("ns", "sim.tick_empty_ns", "sim.commit_ns_per_reg", "sim.ffwd_jump_ns", "sim.snapshot_restore_ns")

	for _, r := range routers {
		for _, l := range loads {
			add("ns", fmt.Sprintf("noc.tick_ns.%s.load-%.2f", r, l))
		}
	}
	for _, r := range routers {
		exact("noc.tick_allocs." + r)
	}
	for _, f := range fabrics {
		add("ns", "noc.rig_build_ns."+f)
	}
	add("ns", "noc.point_ns.saturated", "noc.point_ns.idle", "noc.service_point_ns", "noc.replay_point_ns")
	rate("Mcycles/s", "noc.sim_mcycles_per_s.saturated", "noc.sim_mcycles_per_s.idle")
	exact("noc.delivered", "noc.deflections", "noc.peak_buffer")

	add("ns", "pe.handoff_ns_per_op.procs1", "pe.handoff_ns_per_op.procs2", "pe.memop_ns",
		"core.build_ns", "core.run_ns_per_ticked_cycle")
	exact("pe.ops", "pe.mem_ops", "pe.stall_cycles", "cache.misses", "mpmmu.busy_cycles", "noc.kernel_flits")

	add("ns", "jacobi.point_ns", "jacobi.verify_ns", "matmul.point_ns", "syncbench.point_ns")
	rate("Mcycles/s", "jacobi.sim_mcycles_per_s")
	exact("jacobi.golden_cycles")

	add("ns", "scenario.parse_ns", "scenario.render_ns.csv", "scenario.render_ns.json", "scenario.render_ns.table",
		"scenario.merkle_ns", "scenario.overhead_ns_per_point", "par.dispatch_ns_per_job", "dse.fig8quick_ns")

	add("ns", "resultcache.key_ns", "resultcache.hit_ns.mem", "resultcache.hit_ns.disk",
		"resultcache.miss_put_ns.mem", "resultcache.miss_put_ns.disk", "resultcache.merkle_build_ns")
	exact("resultcache.evictions")
	rate("ratio", "resultcache.hit_rate")

	add("ns", "shard.frame_ns")
	add("ms", "shard.pipe_overhead_ms", "shard.proc_spawn_ms")

	add("us", "serve.job_overhead_us", "serve.http_submit_us", "serve.http_status_us")
	add("ns", "serve.submit_ns", "serve.status_ns", "serve.result_ns")
	add("ms", "serve.span.submit_ms", "serve.span.wait_ms", "serve.span.fetch_ms", "serve.queue_wait_ms_p50",
		"serve.miss_latency_p95_ms", "serve.miss_latency_p99_ms", "serve.hit_latency_p50_ms")
	rate("1/s", "serve.jobs_per_s")
	add("count", "serve.polls_per_job")
	add("kB", "serve.retained_kb_per_job")
	exact("serve.burst_rejected")

	add("ns", "trace.encode_ns_per_event", "trace.decode_ns_per_event")

	add("ms", "host.calib_ms")
	add("MB", "host.peak_rss_mb")
	return d
}

func defOf(table []metricDef, name string) (metricDef, bool) {
	for _, d := range table {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// metric is one reported value: its summary with the unit from the table.
type metric struct {
	summary
	Unit  string `json:"unit"`
	Exact bool   `json:"exact,omitempty"`
}

// metricSet collects the values of one table and knows when a name is
// reported twice or is not in the table, either of which is a bug here.
type metricSet struct {
	table  []metricDef
	values map[string]metric
}

func newMetricSet(table []metricDef) *metricSet {
	return &metricSet{table: table, values: map[string]metric{}}
}

func (m *metricSet) put(name string, s summary) {
	d, ok := defOf(m.table, name)
	if !ok {
		panic("bench: metric " + name + " is not in the table")
	}
	if _, dup := m.values[name]; dup {
		panic("bench: metric " + name + " reported twice")
	}
	m.values[name] = metric{summary: s, Unit: d.unit, Exact: d.exact}
}

// missing lists the table's names that have no value yet, restricted to
// the rows keep accepts.
func (m *metricSet) missing(keep func(metricDef) bool) []string {
	var out []string
	for _, d := range m.table {
		if _, ok := m.values[d.name]; !ok && keep(d) {
			out = append(out, d.name)
		}
	}
	return out
}
