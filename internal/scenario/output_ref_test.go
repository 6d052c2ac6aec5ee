package scenario

// The renderers as they were before the column lists replaced them: one
// hand-written table, CSV and JSON writer per schema. They are kept here
// unchanged but for their names, as the oracle the column lists are held
// to byte for byte (TestRenderMatchesReference, FuzzRender).

import (
	"encoding/json"
	"fmt"
	"strings"
	"text/tabwriter"
)

// refSchema is one kind's reference writers: the render methods the
// Workload interface used to carry.
type refSchema interface {
	TableInto(w *tabwriter.Writer, rows []Result)
	CSVInto(b *strings.Builder, rows []Result)
	JSONRow(r Result) any
}

type (
	refJacobi    struct{}
	refMatmul    struct{}
	refSyncbench struct{}
	refNoC       struct{}
	refTrace     struct{}
	refService   struct{}
)

var refImpls = [numWorkloads]refSchema{
	WorkloadJacobi:    refJacobi{},
	WorkloadMatmul:    refMatmul{},
	WorkloadSyncbench: refSyncbench{},
	WorkloadNoC:       refNoC{},
	WorkloadTrace:     refTrace{},
	WorkloadService:   refService{},
}

// refRender is the reference Render.
func refRender(results []Result, format string) (string, error) {
	switch format {
	case "", FormatTable:
		return refTable(results), nil
	case FormatCSV:
		return refCSV(results), nil
	case FormatJSON:
		return refJSON(results)
	}
	return "", fmt.Errorf("scenario: unknown output format %q (have: %s, %s, %s)",
		format, FormatTable, FormatCSV, FormatJSON)
}

type refGroup struct {
	kind WorkloadKind
	rows []Result
}

func refGroups(results []Result) []refGroup {
	var groups []refGroup
	for _, r := range results {
		k := refWorkloadOfRow(r)
		if n := len(groups); n > 0 && groups[n-1].kind == k {
			groups[n-1].rows = append(groups[n-1].rows, r)
			continue
		}
		groups = append(groups, refGroup{kind: k, rows: []Result{r}})
	}
	return groups
}

func refWorkloadOfRow(r Result) WorkloadKind {
	k, err := ParseWorkload(r.Workload)
	if err != nil {
		return WorkloadNoC
	}
	return k
}

func refTable(results []Result) string {
	if len(results) == 0 {
		return "(no points)\n"
	}
	var b strings.Builder
	for i, g := range refGroups(results) {
		if i > 0 {
			b.WriteByte('\n')
		}
		w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', tabwriter.AlignRight)
		refImpls[g.kind].TableInto(w, g.rows)
		w.Flush()
	}
	return b.String()
}

func refCSV(results []Result) string {
	var b strings.Builder
	if len(results) == 0 {
		refNoC{}.CSVInto(&b, nil)
		return b.String()
	}
	for _, g := range refGroups(results) {
		refImpls[g.kind].CSVInto(&b, g.rows)
	}
	return b.String()
}

func refJSON(results []Result) (string, error) {
	rows := make([]any, len(results))
	for i, r := range results {
		rows[i] = refImpls[refWorkloadOfRow(r)].JSONRow(r)
	}
	out, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return "", fmt.Errorf("scenario: rendering json: %w", err)
	}
	return string(out) + "\n", nil
}

func refMultiVariant(rows []Result) bool {
	for _, r := range rows {
		if r.Variant != rows[0].Variant {
			return true
		}
	}
	return false
}

// ---- jacobi schema ----------------------------------------------------

func (refJacobi) TableInto(w *tabwriter.Writer, rows []Result) {
	multi := refMultiVariant(rows)
	head := "cores\tcache\tpolicy\tcycles/iter\tmiss%\tarea(mm2)\tspeedup\t"
	if multi {
		head += "variant\t"
	}
	fmt.Fprintln(w, head)
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%dkB\t%s\t%d\t%.1f\t%.2f\t%.2f\t",
			r.Cores, r.CacheKB, r.Policy, r.CyclesPerIter, 100*r.MissRate, r.AreaMM2, r.Speedup)
		if multi {
			fmt.Fprintf(w, "%s\t", r.Variant)
		}
		fmt.Fprintln(w)
	}
}

func (refJacobi) CSVInto(b *strings.Builder, rows []Result) {
	multi := refMultiVariant(rows)
	head := "compute,cache_kb,policy,cycles_per_iter,miss_rate,area_mm2,speedup"
	if multi {
		head += ",variant"
	}
	b.WriteString(head + "\n")
	for _, r := range rows {
		fmt.Fprintf(b, "%d,%d,%v,%d,%.6f,%.3f,%.3f",
			r.Cores, r.CacheKB, r.Policy, r.CyclesPerIter, r.MissRate, r.AreaMM2, r.Speedup)
		if multi {
			fmt.Fprintf(b, ",%s", r.Variant)
		}
		b.WriteByte('\n')
	}
}

type jacobiJSON struct {
	Scenario      string  `json:"scenario"`
	Workload      string  `json:"workload"`
	Cores         int     `json:"cores"`
	CacheKB       int     `json:"cache_kb"`
	Policy        string  `json:"policy"`
	Variant       string  `json:"variant"`
	CyclesPerIter int64   `json:"cycles_per_iter"`
	MissRate      float64 `json:"miss_rate"`
	AreaMM2       float64 `json:"area_mm2"`
	Speedup       float64 `json:"speedup"`
}

func (refJacobi) JSONRow(r Result) any {
	return jacobiJSON{
		Scenario: r.Scenario, Workload: r.Workload,
		Cores: r.Cores, CacheKB: r.CacheKB, Policy: r.Policy, Variant: r.Variant,
		CyclesPerIter: r.CyclesPerIter, MissRate: r.MissRate,
		AreaMM2: r.AreaMM2, Speedup: r.Speedup,
	}
}

// ---- matmul schema ----------------------------------------------------

func (refMatmul) TableInto(w *tabwriter.Writer, rows []Result) {
	fmt.Fprintln(w, "variant\tcores\tcache\tpolicy\ttotal-cycles\txfer-cycles\tspeedup\tmpmmu-busy\tnoc-flits\t")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%dkB\t%s\t%d\t%d\t%.2f\t%d\t%d\t\n",
			r.Variant, r.Cores, r.CacheKB, r.Policy,
			r.TotalCycles, r.TransferCycles, r.Speedup, r.MPMMUBusy, r.NoCFlits)
	}
}

func (refMatmul) CSVInto(b *strings.Builder, rows []Result) {
	b.WriteString("variant,cores,cache_kb,policy,total_cycles,transfer_cycles,speedup,mpmmu_busy,noc_flits\n")
	for _, r := range rows {
		fmt.Fprintf(b, "%s,%d,%d,%s,%d,%d,%.3f,%d,%d\n",
			r.Variant, r.Cores, r.CacheKB, r.Policy,
			r.TotalCycles, r.TransferCycles, r.Speedup, r.MPMMUBusy, r.NoCFlits)
	}
}

type matmulJSON struct {
	Scenario       string  `json:"scenario"`
	Workload       string  `json:"workload"`
	Variant        string  `json:"variant"`
	Cores          int     `json:"cores"`
	CacheKB        int     `json:"cache_kb"`
	Policy         string  `json:"policy"`
	TotalCycles    int64   `json:"total_cycles"`
	TransferCycles int64   `json:"transfer_cycles"`
	Speedup        float64 `json:"speedup"`
	MPMMUBusy      int64   `json:"mpmmu_busy"`
	NoCFlits       int64   `json:"noc_flits"`
}

func (refMatmul) JSONRow(r Result) any {
	return matmulJSON{
		Scenario: r.Scenario, Workload: r.Workload, Variant: r.Variant,
		Cores: r.Cores, CacheKB: r.CacheKB, Policy: r.Policy,
		TotalCycles: r.TotalCycles, TransferCycles: r.TransferCycles,
		Speedup: r.Speedup, MPMMUBusy: r.MPMMUBusy, NoCFlits: r.NoCFlits,
	}
}

// ---- syncbench schema -------------------------------------------------

func (refSyncbench) TableInto(w *tabwriter.Writer, rows []Result) {
	fmt.Fprintln(w, "variant\tcores\tcache\tpolicy\tcycles/round\tspeedup\tmpmmu-busy\tnoc-flits\t")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%dkB\t%s\t%d\t%.2f\t%d\t%d\t\n",
			r.Variant, r.Cores, r.CacheKB, r.Policy,
			r.CyclesPerRound, r.Speedup, r.MPMMUBusy, r.NoCFlits)
	}
}

func (refSyncbench) CSVInto(b *strings.Builder, rows []Result) {
	b.WriteString("variant,cores,cache_kb,policy,cycles_per_round,speedup,mpmmu_busy,noc_flits\n")
	for _, r := range rows {
		fmt.Fprintf(b, "%s,%d,%d,%s,%d,%.3f,%d,%d\n",
			r.Variant, r.Cores, r.CacheKB, r.Policy,
			r.CyclesPerRound, r.Speedup, r.MPMMUBusy, r.NoCFlits)
	}
}

type syncbenchJSON struct {
	Scenario       string  `json:"scenario"`
	Workload       string  `json:"workload"`
	Variant        string  `json:"variant"`
	Cores          int     `json:"cores"`
	CacheKB        int     `json:"cache_kb"`
	Policy         string  `json:"policy"`
	CyclesPerRound int64   `json:"cycles_per_round"`
	Speedup        float64 `json:"speedup"`
	MPMMUBusy      int64   `json:"mpmmu_busy"`
	NoCFlits       int64   `json:"noc_flits"`
}

func (refSyncbench) JSONRow(r Result) any {
	return syncbenchJSON{
		Scenario: r.Scenario, Workload: r.Workload, Variant: r.Variant,
		Cores: r.Cores, CacheKB: r.CacheKB, Policy: r.Policy,
		CyclesPerRound: r.CyclesPerRound, Speedup: r.Speedup,
		MPMMUBusy: r.MPMMUBusy, NoCFlits: r.NoCFlits,
	}
}

// ---- noc-synthetic schema ---------------------------------------------

func (refNoC) TableInto(w *tabwriter.Writer, rows []Result) {
	fmt.Fprintln(w, "topo\trouter\tpattern\trate\tseed\tcycles\tthroughput\tmean-lat\tp99-lat\tdefl/flit\tpeak-buf\tdelivered\t")
	for _, r := range rows {
		name := r.Pattern
		if r.Bursty {
			name = "bursty+" + name
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%.2f\t%d\t%d\t%.3f\t%.1f\t%.0f\t%.2f\t%d\t%d\t\n",
			r.Topology, r.Router, name, r.Rate, r.Seed, r.Cycles, r.Throughput, r.MeanLatency, r.P99Latency,
			r.DeflectionRate, r.PeakBuffer, r.Delivered)
	}
}

func (refNoC) CSVInto(b *strings.Builder, rows []Result) {
	b.WriteString("pattern,rate,seed,topology,router,bursty,cycles,delivered,throughput,mean_latency,p99_latency,deflection_rate,peak_buffer\n")
	for _, r := range rows {
		fmt.Fprintf(b, "%s,%g,%d,%s,%s,%t,%d,%d,%.6f,%.3f,%g,%.4f,%d\n",
			r.Pattern, r.Rate, r.Seed, r.Topology, r.Router, r.Bursty, r.Cycles, r.Delivered,
			r.Throughput, r.MeanLatency, r.P99Latency, r.DeflectionRate, r.PeakBuffer)
	}
}

type nocJSON struct {
	Scenario       string  `json:"scenario"`
	Workload       string  `json:"workload"`
	Topology       string  `json:"topology"`
	Router         string  `json:"router"`
	Pattern        string  `json:"pattern"`
	Rate           float64 `json:"rate"`
	Seed           int64   `json:"seed"`
	Bursty         bool    `json:"bursty"`
	Cycles         int64   `json:"cycles"`
	Delivered      int64   `json:"delivered"`
	Throughput     float64 `json:"throughput"`
	MeanLatency    float64 `json:"mean_latency"`
	P99Latency     float64 `json:"p99_latency"`
	DeflectionRate float64 `json:"deflection_rate"`
	PeakBuffer     int     `json:"peak_buffer"`
}

func (refNoC) JSONRow(r Result) any {
	return nocJSON{
		Scenario: r.Scenario, Workload: r.Workload,
		Topology: r.Topology, Router: r.Router, Pattern: r.Pattern, Rate: r.Rate, Seed: r.Seed, Bursty: r.Bursty,
		Cycles: r.Cycles, Delivered: r.Delivered, Throughput: r.Throughput,
		MeanLatency: r.MeanLatency, P99Latency: r.P99Latency,
		DeflectionRate: r.DeflectionRate, PeakBuffer: r.PeakBuffer,
	}
}

// ---- trace schema -------------------------------------------------------

func (refTrace) TableInto(w *tabwriter.Writer, rows []Result) { refNoC{}.TableInto(w, rows) }
func (refTrace) CSVInto(b *strings.Builder, rows []Result)    { refNoC{}.CSVInto(b, rows) }
func (refTrace) JSONRow(r Result) any                         { return refNoC{}.JSONRow(r) }

// ---- service schema -----------------------------------------------------

func (refService) TableInto(w *tabwriter.Writer, rows []Result) {
	fmt.Fprintln(w, "topo\trouter\tservers\trate\tskew\tseed\tcycles\tissued\tdone\tmean-lat\tp99-lat\tqueue\tnet-out\tserver\tnet-back\tp99-srv\tpeak-buf\t")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%d\t%.3f\t%.2f\t%d\t%d\t%d\t%d\t%.1f\t%.0f\t%.1f\t%.1f\t%.1f\t%.1f\t%.0f\t%d\t\n",
			r.Topology, r.Router, r.Servers, r.ArrivalRate, r.HotspotSkew, r.Seed, r.Cycles,
			r.Issued, r.Completed, r.MeanLatency, r.P99Latency,
			r.MeanQueue, r.MeanNetOut, r.MeanServer, r.MeanNetBack, r.P99Server, r.PeakBuffer)
	}
}

func (refService) CSVInto(b *strings.Builder, rows []Result) {
	b.WriteString("topology,router,servers,arrival_rate,hotspot_skew,seed,bursty,cycles,issued,completed,in_flight,throttled,throughput,mean_queue,mean_net_out,mean_server,mean_net_back,mean_latency,p99_latency,p99_server,peak_buffer\n")
	for _, r := range rows {
		fmt.Fprintf(b, "%s,%s,%d,%g,%g,%d,%t,%d,%d,%d,%d,%d,%.6f,%.3f,%.3f,%.3f,%.3f,%.3f,%g,%g,%d\n",
			r.Topology, r.Router, r.Servers, r.ArrivalRate, r.HotspotSkew, r.Seed, r.Bursty, r.Cycles,
			r.Issued, r.Completed, r.InFlight, r.Throttled, r.Throughput,
			r.MeanQueue, r.MeanNetOut, r.MeanServer, r.MeanNetBack,
			r.MeanLatency, r.P99Latency, r.P99Server, r.PeakBuffer)
	}
}

type serviceJSON struct {
	Scenario    string  `json:"scenario"`
	Workload    string  `json:"workload"`
	Topology    string  `json:"topology"`
	Router      string  `json:"router"`
	Servers     int     `json:"servers"`
	ArrivalRate float64 `json:"arrival_rate"`
	HotspotSkew float64 `json:"hotspot_skew"`
	Seed        int64   `json:"seed"`
	Bursty      bool    `json:"bursty"`
	Cycles      int64   `json:"cycles"`
	Issued      int64   `json:"issued"`
	Completed   int64   `json:"completed"`
	InFlight    int64   `json:"in_flight"`
	Throttled   int64   `json:"throttled"`
	Throughput  float64 `json:"throughput"`
	MeanQueue   float64 `json:"mean_queue"`
	MeanNetOut  float64 `json:"mean_net_out"`
	MeanServer  float64 `json:"mean_server"`
	MeanNetBack float64 `json:"mean_net_back"`
	MeanLatency float64 `json:"mean_latency"`
	P99Latency  float64 `json:"p99_latency"`
	P99Server   float64 `json:"p99_server"`
	PeakBuffer  int     `json:"peak_buffer"`
}

func (refService) JSONRow(r Result) any {
	return serviceJSON{
		Scenario: r.Scenario, Workload: r.Workload,
		Topology: r.Topology, Router: r.Router,
		Servers: r.Servers, ArrivalRate: r.ArrivalRate, HotspotSkew: r.HotspotSkew,
		Seed: r.Seed, Bursty: r.Bursty, Cycles: r.Cycles,
		Issued: r.Issued, Completed: r.Completed, InFlight: r.InFlight, Throttled: r.Throttled,
		Throughput: r.Throughput,
		MeanQueue:  r.MeanQueue, MeanNetOut: r.MeanNetOut,
		MeanServer: r.MeanServer, MeanNetBack: r.MeanNetBack,
		MeanLatency: r.MeanLatency, P99Latency: r.P99Latency, P99Server: r.P99Server,
		PeakBuffer: r.PeakBuffer,
	}
}
