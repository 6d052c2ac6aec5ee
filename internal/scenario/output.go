package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
	"text/tabwriter"
)

// Output format names for Scenario.Output, the CLI -format flag and the
// serve ?format= query.
const (
	FormatTable = "table"
	FormatCSV   = "csv"
	FormatJSON  = "json"
)

// CheckFormat returns nil for a format Render knows ("" is the default)
// and otherwise an error that calls the value what ("output format",
// "-format") and lists the known names.
func CheckFormat(format, what string) error {
	switch format {
	case "", FormatTable, FormatCSV, FormatJSON:
		return nil
	}
	return fmt.Errorf("unknown %s %q (have: %s, %s, %s)", what, format, FormatTable, FormatCSV, FormatJSON)
}

// ResolveFormat returns the format a run of s renders in: the caller's
// choice (a -format flag, a ?format= query) over the file's "output",
// else table.
func (s *Scenario) ResolveFormat(choice string) string {
	switch {
	case choice != "":
		return choice
	case s.Output != "":
		return s.Output
	}
	return FormatTable
}

// Render formats results in the named format (FormatTable, FormatCSV or
// FormatJSON; "" means table). Each row prints through its kind's column
// lists (schemas), and a result set spanning several workloads (the
// "workloads" sweep axis) renders as one block per workload.
func Render(results []Result, format string) (string, error) {
	if err := CheckFormat(format, "output format"); err != nil {
		return "", fmt.Errorf("scenario: %w", err)
	}
	switch format {
	case FormatCSV:
		return renderCSV(results), nil
	case FormatJSON:
		return renderJSON(results)
	}
	return renderTable(results), nil
}

// column is one rendered field of a Result: name is its CSV header and
// JSON key (for a table-only column, just its key in columns), head its
// table header, csv and table the fmt verbs it prints with — empty where
// no schema shows it in that format. A field prints the same way in every
// schema that shows it.
type column struct {
	name, head string
	csv, table string
	get        func(*Result) any
}

// columns is the one column table every schema draws from.
var columns = []column{
	{"scenario", "", "", "", func(r *Result) any { return r.Scenario }},
	{"workload", "", "", "", func(r *Result) any { return r.Workload }},
	{"topology", "topo", "%s", "%s", func(r *Result) any { return r.Topology }},
	{"router", "router", "%s", "%s", func(r *Result) any { return r.Router }},
	{"pattern", "", "%s", "", func(r *Result) any { return r.Pattern }},
	{"bursty_pattern", "pattern", "", "%s", func(r *Result) any {
		if r.Bursty {
			return "bursty+" + r.Pattern
		}
		return r.Pattern
	}},
	{"rate", "rate", "%g", "%.2f", func(r *Result) any { return r.Rate }},
	{"seed", "seed", "%d", "%d", func(r *Result) any { return r.Seed }},
	{"bursty", "", "%t", "", func(r *Result) any { return r.Bursty }},
	{"cycles", "cycles", "%d", "%d", func(r *Result) any { return r.Cycles }},
	{"delivered", "delivered", "%d", "%d", func(r *Result) any { return r.Delivered }},
	{"throughput", "throughput", "%.6f", "%.3f", func(r *Result) any { return r.Throughput }},
	{"mean_latency", "mean-lat", "%.3f", "%.1f", func(r *Result) any { return r.MeanLatency }},
	{"p99_latency", "p99-lat", "%g", "%.0f", func(r *Result) any { return r.P99Latency }},
	{"deflection_rate", "defl/flit", "%.4f", "%.2f", func(r *Result) any { return r.DeflectionRate }},
	{"peak_buffer", "peak-buf", "%d", "%d", func(r *Result) any { return r.PeakBuffer }},
	{"cores", "cores", "%d", "%d", func(r *Result) any { return r.Cores }},
	// The jacobi CSV's name for cores (the fig8-quick CSV golden).
	{"compute", "", "%d", "", func(r *Result) any { return r.Cores }},
	{"cache_kb", "cache", "%d", "%dkB", func(r *Result) any { return r.CacheKB }},
	{"policy", "policy", "%s", "%s", func(r *Result) any { return r.Policy }},
	{"variant", "variant", "%s", "%s", func(r *Result) any { return r.Variant }},
	{"cycles_per_iter", "cycles/iter", "%d", "%d", func(r *Result) any { return r.CyclesPerIter }},
	{"miss_rate", "", "%.6f", "", func(r *Result) any { return r.MissRate }},
	{"miss_pct", "miss%", "", "%.1f", func(r *Result) any { return 100 * r.MissRate }},
	{"area_mm2", "area(mm2)", "%.3f", "%.2f", func(r *Result) any { return r.AreaMM2 }},
	{"speedup", "speedup", "%.3f", "%.2f", func(r *Result) any { return r.Speedup }},
	{"total_cycles", "total-cycles", "%d", "%d", func(r *Result) any { return r.TotalCycles }},
	{"transfer_cycles", "xfer-cycles", "%d", "%d", func(r *Result) any { return r.TransferCycles }},
	{"cycles_per_round", "cycles/round", "%d", "%d", func(r *Result) any { return r.CyclesPerRound }},
	{"mpmmu_busy", "mpmmu-busy", "%d", "%d", func(r *Result) any { return r.MPMMUBusy }},
	{"noc_flits", "noc-flits", "%d", "%d", func(r *Result) any { return r.NoCFlits }},
	{"servers", "servers", "%d", "%d", func(r *Result) any { return r.Servers }},
	{"arrival_rate", "rate", "%g", "%.3f", func(r *Result) any { return r.ArrivalRate }},
	{"hotspot_skew", "skew", "%g", "%.2f", func(r *Result) any { return r.HotspotSkew }},
	{"issued", "issued", "%d", "%d", func(r *Result) any { return r.Issued }},
	{"completed", "done", "%d", "%d", func(r *Result) any { return r.Completed }},
	{"in_flight", "", "%d", "", func(r *Result) any { return r.InFlight }},
	{"throttled", "", "%d", "", func(r *Result) any { return r.Throttled }},
	{"mean_queue", "queue", "%.3f", "%.1f", func(r *Result) any { return r.MeanQueue }},
	{"mean_net_out", "net-out", "%.3f", "%.1f", func(r *Result) any { return r.MeanNetOut }},
	{"mean_server", "server", "%.3f", "%.1f", func(r *Result) any { return r.MeanServer }},
	{"mean_net_back", "net-back", "%.3f", "%.1f", func(r *Result) any { return r.MeanNetBack }},
	{"p99_server", "p99-srv", "%g", "%.0f", func(r *Result) any { return r.P99Server }},
}

// cols returns the columns named in a space-separated list, in order.
func cols(names string) []column {
	var out []column
	for _, name := range strings.Fields(names) {
		i := slices.IndexFunc(columns, func(c column) bool { return c.name == name })
		if i < 0 {
			panic("scenario: no column " + name)
		}
		out = append(out, columns[i])
	}
	return out
}

// schema is one kind's ordered column lists, one per format.
type schema struct {
	table, csv, json []column
	// variantTail appends the variant column to the table and CSV of a
	// block whose rows span several variants. Only jacobi sets it: its
	// single-variant CSV is pinned byte for byte (medea-scenarios'
	// TestGoldenFig8ViaCLI holds this), so the variants axis may only add
	// a column at the end.
	variantTail bool
}

// schemas holds every kind's column lists. Replay rows come back labeled
// noc-synthetic (a same-fabric replay renders byte-identically to its
// source run), so the trace entry only serves hand-built rows that say
// "trace": they wear the noc schema, as do rows of an unknown workload
// (workloadOfRow).
var schemas = func() (s [numWorkloads]schema) {
	const (
		matmul    = "variant cores cache_kb policy total_cycles transfer_cycles speedup mpmmu_busy noc_flits"
		syncbench = "variant cores cache_kb policy cycles_per_round speedup mpmmu_busy noc_flits"
		service   = "topology router servers arrival_rate hotspot_skew seed bursty cycles issued completed in_flight throttled throughput mean_queue mean_net_out mean_server mean_net_back mean_latency p99_latency p99_server peak_buffer"
	)
	s[WorkloadJacobi] = schema{
		table:       cols("cores cache_kb policy cycles_per_iter miss_pct area_mm2 speedup"),
		csv:         cols("compute cache_kb policy cycles_per_iter miss_rate area_mm2 speedup"),
		json:        cols("scenario workload cores cache_kb policy variant cycles_per_iter miss_rate area_mm2 speedup"),
		variantTail: true,
	}
	s[WorkloadMatmul] = schema{table: cols(matmul), csv: cols(matmul), json: cols("scenario workload " + matmul)}
	s[WorkloadSyncbench] = schema{table: cols(syncbench), csv: cols(syncbench), json: cols("scenario workload " + syncbench)}
	s[WorkloadNoC] = schema{
		table: cols("topology router bursty_pattern rate seed cycles throughput mean_latency p99_latency deflection_rate peak_buffer delivered"),
		csv:   cols("pattern rate seed topology router bursty cycles delivered throughput mean_latency p99_latency deflection_rate peak_buffer"),
		json:  cols("scenario workload topology router pattern rate seed bursty cycles delivered throughput mean_latency p99_latency deflection_rate peak_buffer"),
	}
	s[WorkloadTrace] = s[WorkloadNoC]
	s[WorkloadService] = schema{
		table: cols("topology router servers arrival_rate hotspot_skew seed cycles issued completed mean_latency p99_latency mean_queue mean_net_out mean_server mean_net_back p99_server peak_buffer"),
		csv:   cols(service),
		json:  cols("scenario workload " + service),
	}
	return s
}()

// block returns the columns a block of rows prints: list, plus the
// variant column if the schema takes one and the rows span several
// variants.
func (s schema) block(list []column, rows []Result) []column {
	for _, r := range rows {
		if s.variantTail && r.Variant != rows[0].Variant {
			return append(list[:len(list):len(list)], cols("variant")...)
		}
	}
	return list
}

// renderGroup is a maximal run of consecutive results of one workload
// kind. RunCtx emits results workload-outermost, so for scenario output one
// group per workload comes back; hand-assembled interleavings still
// render correctly, with repeated headers.
type renderGroup struct {
	kind WorkloadKind
	rows []Result
}

func renderGroups(results []Result) []renderGroup {
	var groups []renderGroup
	for i, r := range results {
		k := workloadOfRow(r)
		if n := len(groups); n > 0 && groups[n-1].kind == k {
			// rows is the window of results ending just before i.
			groups[n-1].rows = groups[n-1].rows[:len(groups[n-1].rows)+1]
			continue
		}
		groups = append(groups, renderGroup{kind: k, rows: results[i : i+1]})
	}
	return groups
}

// workloadOfRow resolves a row's schema; rows with an unknown workload
// string (hand-built Results) fall back to the noc-synthetic schema,
// which was the pre-registry behaviour.
func workloadOfRow(r Result) WorkloadKind {
	k, err := ParseWorkload(r.Workload)
	if err != nil {
		return WorkloadNoC
	}
	return k
}

// writeBlock prints a header line and one line per row. A table line is
// every column's head (table verb) followed by a tab; a CSV line joins
// the columns' names (CSV verbs) with commas.
func writeBlock(w io.Writer, rows []Result, list []column, table bool) {
	heads := make([]string, len(list))
	verbs := make([]string, len(list))
	for i, c := range list {
		heads[i], verbs[i] = c.name, c.csv
		if table {
			heads[i], verbs[i] = c.head, c.table
		}
	}
	sep, end := ",", "\n"
	if table {
		sep, end = "\t", "\t\n"
	}
	io.WriteString(w, strings.Join(heads, sep)+end)
	format := strings.Join(verbs, sep) + end
	args := make([]any, len(list))
	for i := range rows {
		for j, c := range list {
			args[j] = c.get(&rows[i])
		}
		fmt.Fprintf(w, format, args...)
	}
}

// renderTable renders results as an aligned text table, one row per
// point, one header block per workload.
func renderTable(results []Result) string {
	if len(results) == 0 {
		return "(no points)\n"
	}
	var b strings.Builder
	for i, g := range renderGroups(results) {
		if i > 0 {
			b.WriteByte('\n')
		}
		w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', tabwriter.AlignRight)
		s := schemas[g.kind]
		writeBlock(w, g.rows, s.block(s.table, g.rows), true)
		w.Flush()
	}
	return b.String()
}

// renderCSV renders results as CSV with a uniform header per workload
// block. No results still print a header, the noc schema's (the
// pre-registry behaviour), so empty sweeps yield parseable output.
func renderCSV(results []Result) string {
	groups := renderGroups(results)
	if len(groups) == 0 {
		groups = []renderGroup{{kind: WorkloadNoC}}
	}
	var b strings.Builder
	for _, g := range groups {
		s := schemas[g.kind]
		writeBlock(&b, g.rows, s.block(s.csv, g.rows), false)
	}
	return b.String()
}

// renderJSON renders results as an indented JSON array, one object per
// point holding every column of its kind's JSON list in order: zeros
// included, nothing from other kinds.
func renderJSON(results []Result) (string, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	b.WriteByte('[')
	for i := range results {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('{')
		for j, c := range schemas[workloadOfRow(results[i])].json {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteByte('"')
			b.WriteString(c.name)
			b.WriteString(`":`)
			if err := enc.Encode(c.get(&results[i])); err != nil {
				return "", fmt.Errorf("scenario: rendering json: %w", err)
			}
			b.Truncate(b.Len() - 1) // Encode ends every value with a newline
		}
		b.WriteByte('}')
	}
	b.WriteByte(']')
	var out bytes.Buffer
	// b is valid JSON assembled from Encode output: Indent cannot fail.
	json.Indent(&out, b.Bytes(), "", "  ")
	out.WriteByte('\n')
	return out.String(), nil
}

// Summary renders a one-line header describing the scenario and its sweep
// size, for CLI output above the result block.
func Summary(s *Scenario) string {
	kinds, err := s.workloadKinds()
	if err != nil {
		return fmt.Sprintf("%s: invalid workload axis", s.Name)
	}
	var axes string
	switch kinds[0] {
	case WorkloadNoC:
		axes = fmt.Sprintf("%d topologies x %d routers x %d patterns x %d rates x %d seeds",
			max(1, len(s.NoC.Topologies)), max(1, len(s.NoC.Routers)),
			len(s.NoC.Patterns), len(s.NoC.Rates), len(s.seedList()))
	case WorkloadTrace:
		if t, err := s.Trace.load(); err == nil {
			axes = fmt.Sprintf("%d topologies x %d routers replaying %d recorded events",
				max(1, len(s.Trace.Topologies)), max(1, len(s.Trace.Routers)), len(t.Events))
		} else {
			axes = "trace replay"
		}
	case WorkloadService:
		axes = fmt.Sprintf("%d topologies x %d routers x %d rates x %d seeds",
			max(1, len(s.Service.Topologies)), max(1, len(s.Service.Routers)),
			len(s.Service.ArrivalRates), len(s.seedList()))
	default:
		c := s.Kernel
		axes = fmt.Sprintf("%d workloads x %d variants x %d cores x %d caches x %d policies",
			len(kinds), max(1, len(c.Variants)), len(c.Cores), len(c.CacheKB), max(1, len(c.Policies)))
	}
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = k.String()
	}
	plural := "workload"
	if len(kinds) > 1 {
		plural = "workloads"
	}
	return fmt.Sprintf("%s: %s %s, %s = %d points",
		s.Name, strings.Join(names, "+"), plural, axes, s.NumPoints())
}
