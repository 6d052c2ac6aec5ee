// Package scenario provides a declarative JSON experiment format and a
// parallel batch runner for the MEDEA simulator, built around four
// pluggable sweep axes:
//
//   - workload — what each point simulates (WorkloadKind): the jacobi,
//     matmul and syncbench compute kernels on the full MEDEA system, or
//     synthetic traffic on the bare network (noc-synthetic);
//   - variant — the paper's core comparison for kernel workloads:
//     message passing (hybrid-full), shared-memory data with message
//     synchronization (hybrid-sync), or pure shared memory (pure-sm);
//   - topology and router — the network fabrics and switching algorithms
//     for the noc-synthetic workload (noc.TopologyKind, noc.RouterKind),
//     alongside the 9-entry traffic-pattern axis.
//
// A scenario file names its workloads and sweep axes (variants, cores,
// cache sizes and write policies for kernels; topologies, routers,
// patterns, rates and seeds for the bare network) plus the measurement
// windows; RunCtx executes the cross-product of the axes on a worker pool
// and returns one Result per point, renderable as a table, CSV or JSON
// through each workload's column lists (Render), or as a figure
// (Scenario.Render).
//
// Every named axis is resolved through one registry idiom, an
// enum.Table (ParseWorkload here; jacobi.ParseVariant for the variants;
// noc.ParsePattern, noc.ParseRouter and noc.ParseTopology for the network
// axes), and every axis, named or numeric, is read through one parser
// (parseAxis), so the format exists without new Go code: any
// configuration the cmd/ binaries can reach by flags — and sweeps over
// cross-products of them that the binaries cannot express — is one JSON
// file away. A scenario expands once into one
// canonical point list across all its workloads (Scenario.points), and
// RunCtx, RunShardCtx, NumPoints and MergeShards all read that list:
// RunCtx hands it to par.Sweep, the one sweep loop. Kernel points run the
// paper's design-space exploration (kernel.go: the area model and the
// speedup over the smallest configuration), and the paper's figures and
// tables are render formats of kernel scenarios' rows (figures.go: the
// Pareto front, the kill rule and each table; examples/figures/ holds one
// file per figure, TestFigsGolden pins each byte for byte). Noc points
// run through noc.MeasureCtx's path (one run's points share a
// noc.Schedules store of their sources' injection streams,
// byte-identically; noc-load-sweep.json is the bare network's load sweep,
// held to recorded CSVs by TestNoCLoadSweepGolden).
// TestExampleRootsGolden pins the rows of every shipped file.
//
// A field a file leaves out is resolved in one place, before the point
// is keyed. "measure_cycles" 0 is the format's own 5000-cycle window
// (measureCycles). Every other noc and service point default (queue_cap
// 0 is 16, response_flits 0 is 1, think_time 0 is its equivalent 1, a
// hotspot_node under any pattern but hotspot is 0) lives in
// noc.MeasureConfig.Validate and noc.ServiceMeasureConfig.Validate,
// which also hold every per-point bound: validation runs each point of
// one seed through them, and the config a point keys and simulates is
// the one they return. The kernel section's defaults (variant
// hybrid-full, write-back, 20 rounds, one warmup and one measured
// iteration) are KernelConfig.sweep's, and its problem size is held by
// jacobi.Spec.Validate and matmul.Spec.Validate. A section's validate
// checks its axes alone: lists are non-empty, names parse, nothing is
// listed twice.
//
// A file declares what to simulate; how a run executes is its caller's,
// handed down as values by whoever owns the run: the result cache
// (Scenario.Cache), trace capture (Scenario.Record, through RecordCtx),
// the NoC waveform (Scenario.Waveform, through WaveformCtx),
// fast-forward (sim.WithoutFastForward on the context) and sharding
// (internal/shard's Coordinator, which the CLIs drive from -shards). None
// of them can change a rendered byte.
//
// See examples/scenarios/ and examples/figures/ for ready-to-run files,
// REPRODUCING.md for the figure/table map, and cmd/medea-scenarios for the
// CLI driver.
package scenario

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/cache"
	"repro/internal/jacobi"
	"repro/internal/noc"
	"repro/internal/resultcache"
	"repro/internal/trace"
)

// Scenario is the top-level declarative experiment description.
type Scenario struct {
	// Name identifies the scenario in result rows; Load defaults it to
	// the file's base name.
	Name string `json:"name,omitempty"`
	// Description is free-form documentation.
	Description string `json:"description,omitempty"`
	// Workload selects what each point simulates (see WorkloadNames):
	// "jacobi", "matmul", "syncbench" or "noc-synthetic". Mutually
	// exclusive with Workloads.
	Workload string `json:"workload,omitempty"`
	// Workloads sweeps the workload axis itself: a list of kernel
	// workloads (jacobi, matmul, syncbench) that all run the same kernel
	// sweep, one block per workload. The bare-network noc-synthetic
	// workload has disjoint axes and cannot be mixed in.
	Workloads []string `json:"workloads,omitempty"`

	// NoC configures the noc-synthetic workload (required for it).
	NoC *NoCConfig `json:"noc,omitempty"`
	// Trace configures the trace workload (required for it): the recorded
	// trace file to replay and the replay sweep axes.
	Trace *TraceConfig `json:"trace,omitempty"`
	// Service configures the service workload (required for it).
	Service *ServiceConfig `json:"service,omitempty"`
	// Kernel configures the kernel workloads (required for them).
	Kernel *KernelConfig `json:"kernel,omitempty"`

	// Seeds lists explicit RNG seeds; each seed is one replication of
	// every (pattern, rate) point. Mutually exclusive with Replications.
	Seeds []int64 `json:"seeds,omitempty"`
	// Replications runs seeds BaseSeed, BaseSeed+1, ... instead of an
	// explicit list. Defaults to 1.
	Replications int `json:"replications,omitempty"`
	// BaseSeed is the first seed when Replications is used. Defaults to 1.
	BaseSeed int64 `json:"base_seed,omitempty"`

	// Parallelism bounds concurrent simulations; 0 means GOMAXPROCS.
	Parallelism int `json:"parallelism,omitempty"`
	// Output is the default rendering: "table" (default), "csv", "json"
	// or a figure format that fits the workloads (see FormatNames).
	Output string `json:"output,omitempty"`

	// Cache, when non-nil, content-addresses every point's simulation
	// result (see resultcache): repeated points are served from the store
	// and concurrent duplicates collapse to one run. It is runtime state,
	// not part of the declarative format — callers (cmd/medea-scenarios,
	// internal/serve) attach it after Load. nil means cache off; rendered
	// output is byte-identical either way.
	Cache *resultcache.Cache `json:"-"`

	// Record, when non-nil, receives every flit-level injection of a
	// noc-synthetic run and every message send of a kernel run (trace
	// capture; see RecordCtx, which is how callers should record).
	// Runtime state like Cache. Recording bypasses the result cache: a
	// cache hit skips the simulation and would record nothing.
	Record *trace.Trace `json:"-"`

	// Waveform, when non-nil, receives the NoC waveform (VCD) of a
	// one-point jacobi run: runtime state like Record (see WaveformCtx).
	Waveform io.Writer `json:"-"`
}

// NoCConfig describes a synthetic-traffic experiment on the bare network.
type NoCConfig struct {
	// Width and Height size the endpoint grid (both >= 2; the torus and
	// mesh put one switch under every endpoint, the cmesh needs both even
	// and >= 4 and folds each 2x2 endpoint tile onto one switch).
	Width  int `json:"width"`
	Height int `json:"height"`
	// Topologies lists fabrics by name (see noc.TopologyNames); one sweep
	// axis. Empty means the paper's folded torus only. Every listed
	// pattern must be valid on every listed topology (validation is
	// per-topology: bit patterns need a power-of-two endpoint count,
	// transpose a square endpoint grid).
	Topologies []string `json:"topologies,omitempty"`
	// Patterns lists traffic patterns by name (see noc.PatternNames);
	// one sweep axis.
	Patterns []string `json:"patterns"`
	// Routers lists router algorithms by name (see noc.RouterNames); one
	// sweep axis. Empty means the paper's deflection router only.
	Routers []string `json:"routers,omitempty"`
	// Rates lists offered loads in flits/node/cycle, each in (0, 1];
	// one sweep axis.
	Rates []float64 `json:"rates"`
	// HotspotNode is the destination for the hotspot pattern.
	HotspotNode int `json:"hotspot_node,omitempty"`
	// QueueCap bounds each source queue (default 16).
	QueueCap int `json:"queue_cap,omitempty"`
	// Burst, when present, gates every source through a two-state on/off
	// modulator with the given mean burst/gap lengths in cycles.
	Burst *noc.BurstConfig `json:"burst,omitempty"`
	// WarmupCycles run before measurement starts (default 0).
	WarmupCycles int64 `json:"warmup_cycles,omitempty"`
	// MeasureCycles is the measurement window (default 5000). Mutually
	// exclusive with MeasureWindows.
	MeasureCycles int64 `json:"measure_cycles,omitempty"`
	// MeasureWindows sweeps the measurement-window length itself: every
	// point runs once per listed window, and all windows of one
	// (topology, router, pattern, rate, seed) point share a single warmup
	// prefix via an engine snapshot instead of re-simulating it (see
	// noc.Schedules.MeasureWindowsCtx). Results are byte-identical to
	// independent runs. Mutually exclusive with MeasureCycles.
	MeasureWindows []int64 `json:"measure_windows,omitempty"`
}

// TraceConfig describes a trace-replay experiment: a recorded trace file
// (see internal/trace) pushed through the replay sweep axes. The trace
// itself fixes everything else — the endpoint grid, the event schedule
// and the measurement horizon — so the replay axes are topology and
// router only; patterns, rates, seeds and measurement windows have no
// meaning here and validation rejects them.
type TraceConfig struct {
	// File is the trace to replay. Load resolves a relative path against
	// the scenario file's directory (Parse, with no file, leaves it
	// relative to the process working directory).
	File string `json:"file"`
	// Topologies lists replay fabrics by name (see noc.TopologyNames);
	// one sweep axis. Empty means the fabric the trace was recorded on.
	Topologies []string `json:"topologies,omitempty"`
	// Routers lists replay routers by name (see noc.RouterNames); one
	// sweep axis. Empty means the router the trace was recorded under.
	Routers []string `json:"routers,omitempty"`

	// tr memoizes the decoded trace (validate loads it; runs reuse it).
	tr *trace.Trace
}

// load returns the decoded trace, reading File on first use.
func (c *TraceConfig) load() (*trace.Trace, error) {
	if c.tr == nil {
		t, err := trace.Load(c.File)
		if err != nil {
			return nil, err
		}
		c.tr = t
	}
	return c.tr, nil
}

func (c *TraceConfig) validate() error {
	if c.File == "" {
		return fmt.Errorf(`"trace.file" must name a recorded trace (record one with medea-scenarios -record)`)
	}
	t, err := c.load()
	if err != nil {
		return fmt.Errorf(`"trace.file": %w`, err)
	}
	// The default axes come from the recorded provenance; they must
	// resolve too (a trace hand-built with an exotic header fails here,
	// not mid-run).
	if _, err := c.fabrics(t); err != nil {
		return err
	}
	_, err = c.routers(t)
	return err
}

// fabrics resolves the replay-topology axis (default: the recorded
// fabric) and builds every fabric on the trace's endpoint grid.
func (c *TraceConfig) fabrics(t *trace.Trace) ([]noc.Topology, error) {
	h := t.Header
	if len(c.Topologies) == 0 {
		k, err := noc.ParseTopology(h.Topology)
		if err != nil {
			return nil, fmt.Errorf(`"trace.file": recorded topology: %w`, err)
		}
		topos, err := buildKinds([]noc.TopologyKind{k}, h.Width, h.Height)
		if err != nil {
			return nil, fmt.Errorf(`"trace.file": recorded fabric: %w`, err)
		}
		return topos, nil
	}
	kinds, err := parseAxis("trace.topologies", c.Topologies, noc.ParseTopology)
	if err != nil {
		return nil, err
	}
	topos, err := buildKinds(kinds, h.Width, h.Height)
	if err != nil {
		return nil, fmt.Errorf(`"trace.topologies": the trace's %dx%d grid: %w`, h.Width, h.Height, err)
	}
	return topos, nil
}

// routers resolves the replay-router axis (default: the recorded router).
func (c *TraceConfig) routers(t *trace.Trace) ([]noc.RouterKind, error) {
	if len(c.Routers) == 0 {
		k, err := noc.ParseRouter(t.Header.Router)
		if err != nil {
			return nil, fmt.Errorf(`"trace.file": recorded router: %w`, err)
		}
		return []noc.RouterKind{k}, nil
	}
	return parseAxis("trace.routers", c.Routers, noc.ParseRouter)
}

// ServiceConfig describes a request/response service experiment on the
// bare network: the last Servers endpoints answer requests issued
// open-loop by every other endpoint.
type ServiceConfig struct {
	// Width and Height size the endpoint grid (as NoCConfig).
	Width  int `json:"width"`
	Height int `json:"height"`
	// Topologies lists fabrics by name; one sweep axis (default torus).
	Topologies []string `json:"topologies,omitempty"`
	// Routers lists router algorithms by name; one sweep axis (default
	// deflection).
	Routers []string `json:"routers,omitempty"`
	// Servers is how many endpoints (the highest-numbered ones) serve
	// requests; must leave at least one client.
	Servers int `json:"servers"`
	// ArrivalRates lists per-client request probabilities per cycle, each
	// in (0, 1]; one sweep axis.
	ArrivalRates []float64 `json:"arrival_rates"`
	// ThinkTime is the server-side service time per request in cycles
	// (0 and 1 are equivalent; see noc.ServiceMeasureConfig).
	ThinkTime int64 `json:"think_time,omitempty"`
	// ResponseFlits is the response size in flits (default 1).
	ResponseFlits int `json:"response_flits,omitempty"`
	// HotspotSkew is the probability a request targets the first server
	// instead of a uniformly random one (0 = uniform).
	HotspotSkew float64 `json:"hotspot_skew,omitempty"`
	// QueueCap bounds each client's source queue (default 16).
	QueueCap int `json:"queue_cap,omitempty"`
	// Burst, when present, gates client arrivals through the two-state
	// modulator.
	Burst *noc.BurstConfig `json:"burst,omitempty"`
	// WarmupCycles run before measurement starts (default 0).
	WarmupCycles int64 `json:"warmup_cycles,omitempty"`
	// MeasureCycles is the measurement window (default 5000).
	MeasureCycles int64 `json:"measure_cycles,omitempty"`
}

// validate checks the section's axes, then runs every point of one seed
// through noc.ServiceMeasureConfig.Validate, which holds every per-point
// bound.
func (c *ServiceConfig) validate() error {
	jobs, err := c.jobs([]int64{0})
	if err != nil {
		return err
	}
	if len(c.ArrivalRates) == 0 {
		return fmt.Errorf(`"service.arrival_rates" must list at least one per-client rate in (0, 1]`)
	}
	for _, j := range jobs {
		if _, err := serviceMeasureConfig(c, j); err != nil {
			return fmt.Errorf(`"service": %w`, err)
		}
	}
	return nil
}

// fabrics and routers resolve the section's topology and router axes.
func (c *ServiceConfig) fabrics() ([]noc.Topology, error) {
	return buildFabrics("service", c.Topologies, c.Width, c.Height)
}

func (c *ServiceConfig) routers() ([]noc.RouterKind, error) {
	return routerAxis("service", c.Routers)
}

// KernelConfig describes a design-space sweep of the kernel workloads
// (jacobi, matmul, syncbench) on the full MEDEA system. The axes are
// shared: one section drives every kernel listed in "workloads".
type KernelConfig struct {
	// N is the problem size: the grid edge for jacobi (the paper uses 16,
	// 30 and 60; jacobi.Spec.Validate holds the bound), the matrix edge for
	// matmul (matmul.Spec.Validate). A syncbench-only scenario has no
	// problem size.
	N int `json:"n"`
	// Variant selects one programming model: "hybrid-full" (default),
	// "hybrid-sync" or "pure-sm". Mutually exclusive with Variants.
	Variant string `json:"variant,omitempty"`
	// Variants sweeps the programming-model axis (the paper's core
	// message-passing vs shared-memory comparison). Syncbench measures
	// the barrier itself, so it supports hybrid-full (message barrier)
	// and pure-sm (lock barrier) but not hybrid-sync.
	Variants []string `json:"variants,omitempty"`
	// Cores lists compute-core counts; one sweep axis.
	Cores []int `json:"cores"`
	// CacheKB lists L1 sizes in kB; one sweep axis.
	CacheKB []int `json:"cache_kb"`
	// Policies lists write policies ("write-back"/"wb",
	// "write-through"/"wt"); one sweep axis. Defaults to write-back.
	Policies []string `json:"policies,omitempty"`
	// Rounds is the number of synchronization episodes syncbench averages
	// over (default 20); only meaningful when syncbench is swept.
	Rounds int `json:"rounds,omitempty"`
	// Warmup and Measured are Jacobi iteration counts (default 1 each);
	// only meaningful when jacobi is swept.
	Warmup   int `json:"warmup,omitempty"`
	Measured int `json:"measured,omitempty"`
}

// Load reads, parses and validates a scenario file. An empty Name is
// defaulted from the file's base name, and a relative trace path is
// resolved against the file's directory — before validation, which loads
// the trace. The resolved path also makes the scenario portable through
// the shard transport (workers may run in a different directory).
func Load(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s, err := decode(data)
	if err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", path, err)
	}
	if s.Name == "" {
		s.Name = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	}
	if s.Trace != nil && s.Trace.File != "" && !filepath.IsAbs(s.Trace.File) {
		s.Trace.File = filepath.Join(filepath.Dir(path), s.Trace.File)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", path, err)
	}
	return s, nil
}

// Parse decodes and validates a scenario from JSON bytes. Unknown fields
// are rejected so typos fail loudly instead of silently running defaults.
// A relative trace path resolves against the process working directory;
// use Load to resolve it against the scenario file instead.
func Parse(data []byte) (*Scenario, error) {
	s, err := decode(data)
	if err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// decode parses the JSON without validating, so Load can resolve paths
// first.
func decode(data []byte) (*Scenario, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("parsing: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("parsing: trailing data after the scenario object")
	}
	return &s, nil
}

// workloadKinds resolves the workload axis: the single Workload, or the
// Workloads list (kernel workloads only, no duplicates).
func (s *Scenario) workloadKinds() ([]WorkloadKind, error) {
	if s.Workload != "" && len(s.Workloads) > 0 {
		return nil, fmt.Errorf(`set either "workload" or "workloads", not both`)
	}
	if s.Workload != "" {
		k, err := ParseWorkload(s.Workload)
		if err != nil {
			return nil, err
		}
		return []WorkloadKind{k}, nil
	}
	if len(s.Workloads) == 0 {
		return nil, fmt.Errorf(`missing "workload": set one of %s (or a "workloads" list of kernel workloads)`,
			strings.Join(WorkloadNames(), ", "))
	}
	kinds, err := parseAxis("workloads", s.Workloads, ParseWorkload)
	if err != nil {
		return nil, err
	}
	for _, k := range kinds {
		if !k.IsKernel() {
			return nil, fmt.Errorf(`"workloads" sweeps the kernel workloads (%v, %v, %v); run %v through "workload"`,
				WorkloadJacobi, WorkloadMatmul, WorkloadSyncbench, k)
		}
	}
	return kinds, nil
}

// Validate checks the scenario for consistency and fills no defaults (the
// runner applies defaults at execution time, so a validated scenario
// round-trips through JSON unchanged).
func (s *Scenario) Validate() error {
	kinds, err := s.workloadKinds()
	if err != nil {
		return err
	}
	if err := CheckFormat(s.Output, "output format"); err != nil {
		return err
	}
	if len(s.Seeds) > 0 && s.Replications > 0 {
		return fmt.Errorf(`set either "seeds" or "replications", not both`)
	}
	if s.Replications < 0 {
		return fmt.Errorf("replications must be >= 0, got %d", s.Replications)
	}
	if _, err := parseAxis("seeds", s.Seeds, asIs); err != nil {
		return err
	}
	if s.Parallelism < 0 {
		return fmt.Errorf("parallelism must be >= 0, got %d", s.Parallelism)
	}
	if err := s.validateSections(kinds); err != nil {
		return err
	}
	if err := fitFigure(s.Output, kinds, s.Kernel); err != nil {
		return fmt.Errorf(`"output": %w`, err)
	}
	return nil
}

// validateSections checks the section of the scenario's workloads and
// rejects every section that cannot apply to them.
func (s *Scenario) validateSections(kinds []WorkloadKind) error {
	switch kinds[0] {
	case WorkloadNoC:
		if s.Kernel != nil {
			return fmt.Errorf(`the "kernel" section has no effect on workload %v; remove it`, WorkloadNoC)
		}
		if err := s.rejectSections(WorkloadNoC, s.Trace != nil, s.Service != nil); err != nil {
			return err
		}
		if s.NoC == nil {
			return fmt.Errorf(`workload %v needs a "noc" section`, WorkloadNoC)
		}
		return s.NoC.validate()

	case WorkloadTrace:
		// The trace fixes the traffic and the horizon, so none of the
		// noc-synthetic axes can apply; naming the common offenders keeps
		// the error actionable.
		if s.NoC != nil {
			if len(s.NoC.MeasureWindows) > 0 {
				return fmt.Errorf(`"noc.measure_windows" cannot apply to the trace workload: a replay's horizon is fixed by the recording; remove the "noc" section`)
			}
			if len(s.NoC.Patterns) > 0 || len(s.NoC.Rates) > 0 {
				return fmt.Errorf(`the trace workload replays recorded traffic: the "noc" patterns/rates axes cannot apply; remove the "noc" section (replay axes live under "trace")`)
			}
			return fmt.Errorf(`the "noc" section has no effect on the trace workload; remove it (replay axes live under "trace")`)
		}
		if s.Kernel != nil {
			return fmt.Errorf(`the "kernel" section has no effect on the trace workload; remove it`)
		}
		if s.Service != nil {
			return fmt.Errorf(`the "service" section has no effect on the trace workload; remove it`)
		}
		if len(s.Seeds) > 0 || s.Replications > 1 || s.BaseSeed != 0 {
			return fmt.Errorf(`a trace replay is fully deterministic (the recording fixed the traffic): seeds/replications/base_seed have no effect; remove them`)
		}
		if s.Trace == nil {
			return fmt.Errorf(`workload %v needs a "trace" section`, WorkloadTrace)
		}
		return s.Trace.validate()

	case WorkloadService:
		if err := s.rejectSections(WorkloadService, s.Trace != nil, false); err != nil {
			return err
		}
		if s.NoC != nil {
			return fmt.Errorf(`the "noc" section has no effect on workload %v; remove it (the sweep axes live under "service")`, WorkloadService)
		}
		if s.Kernel != nil {
			return fmt.Errorf(`the "kernel" section has no effect on workload %v; remove it`, WorkloadService)
		}
		if s.Service == nil {
			return fmt.Errorf(`workload %v needs a "service" section`, WorkloadService)
		}
		return s.Service.validate()
	}

	// Kernel workloads.
	if s.NoC != nil {
		return fmt.Errorf(`the "noc" section has no effect on kernel workloads; remove it`)
	}
	if s.Trace != nil {
		return fmt.Errorf(`the "trace" section has no effect on kernel workloads; remove it`)
	}
	if s.Service != nil {
		return fmt.Errorf(`the "service" section has no effect on kernel workloads; remove it`)
	}
	if s.Kernel == nil {
		return fmt.Errorf(`every kernel workload needs a "kernel" section`)
	}
	if len(s.Seeds) > 0 || s.Replications > 1 || s.BaseSeed != 0 {
		return fmt.Errorf("kernel workloads are fully deterministic: seeds/replications/base_seed have no effect; remove them")
	}
	return s.Kernel.validate(kinds)
}

// rejectSections rejects the trace/service sections for a workload they
// cannot configure.
func (s *Scenario) rejectSections(k WorkloadKind, hasTrace, hasService bool) error {
	if hasTrace {
		return fmt.Errorf(`the "trace" section has no effect on workload %v; remove it`, k)
	}
	if hasService {
		return fmt.Errorf(`the "service" section has no effect on workload %v; remove it`, k)
	}
	return nil
}

func hasKind(kinds []WorkloadKind, k WorkloadKind) bool {
	for _, kk := range kinds {
		if kk == k {
			return true
		}
	}
	return false
}

// validate checks the section's axes, then runs every point of one seed
// through noc.MeasureConfig.Validate, which holds every per-point bound.
func (c *NoCConfig) validate() error {
	jobs, err := c.jobs([]int64{0})
	if err != nil {
		return err
	}
	if len(c.Patterns) == 0 {
		return fmt.Errorf(`"noc.patterns" must list at least one of: %s`,
			strings.Join(noc.PatternNames(), ", "))
	}
	if len(c.Rates) == 0 {
		return fmt.Errorf(`"noc.rates" must list at least one offered load in (0, 1]`)
	}
	if len(c.MeasureWindows) > 0 && c.MeasureCycles != 0 {
		return fmt.Errorf(`set either "noc.measure_cycles" or "noc.measure_windows", not both`)
	}
	for _, j := range jobs {
		// A pattern that does not fit a fabric is the pattern axis's
		// fault, not one point's.
		if err := noc.ValidatePattern(j.pattern, j.topo); err != nil {
			return fmt.Errorf(`"noc.patterns": %w`, err)
		}
		if _, err := nocMeasureConfig(c, j); err != nil {
			return fmt.Errorf(`"noc": %w`, err)
		}
	}
	return nil
}

func (c *KernelConfig) validate(kinds []WorkloadKind) error {
	hasJacobi := hasKind(kinds, WorkloadJacobi)
	hasMatmul := hasKind(kinds, WorkloadMatmul)
	hasSync := hasKind(kinds, WorkloadSyncbench)

	if !hasJacobi && !hasMatmul && c.N != 0 {
		return fmt.Errorf(`"kernel.n" has no effect on the syncbench workload; remove it`)
	}
	variants, err := c.variantList()
	if err != nil {
		return err
	}
	if hasSync {
		for _, v := range variants {
			if v == jacobi.HybridSync {
				return fmt.Errorf(`"kernel.variants": the syncbench workload has no %v variant (it measures the barrier itself; use %v or %v)`,
					jacobi.HybridSync, jacobi.HybridFull, jacobi.PureSM)
			}
		}
	}
	if len(c.Cores) == 0 {
		return fmt.Errorf(`"kernel.cores" must list at least one compute-core count`)
	}
	if _, err := parseAxis("kernel.cores", c.Cores, func(n int) (int, error) {
		if n < 2 || n > 15 {
			return 0, fmt.Errorf("%d outside the architecture's 2..15 range", n)
		}
		return n, nil
	}); err != nil {
		return err
	}
	if len(c.CacheKB) == 0 {
		return fmt.Errorf(`"kernel.cache_kb" must list at least one L1 size in kB`)
	}
	if _, err := parseAxis("kernel.cache_kb", c.CacheKB, func(kb int) (int, error) {
		if kb <= 0 {
			return 0, fmt.Errorf("%d must be positive", kb)
		}
		return kb, nil
	}); err != nil {
		return err
	}
	if c.Rounds < 0 {
		return fmt.Errorf(`"kernel.rounds" must be >= 0, got %d`, c.Rounds)
	}
	if c.Rounds > 0 && !hasSync {
		return fmt.Errorf(`"kernel.rounds" only affects the syncbench workload; remove it`)
	}
	if c.Warmup < 0 || c.Measured < 0 {
		return fmt.Errorf(`"kernel.warmup"/"kernel.measured" must be >= 0`)
	}
	if (c.Warmup > 0 || c.Measured > 0) && !hasJacobi {
		return fmt.Errorf(`"kernel.warmup"/"kernel.measured" only affect the jacobi workload; remove them`)
	}
	// The policies resolve, and the problem size is held to each kernel's
	// own bound, on the sweep its points will run.
	ks, err := c.sweep()
	if err != nil {
		return err
	}
	if hasJacobi {
		if err := ks.jacobiSpec().Validate(); err != nil {
			return fmt.Errorf(`"kernel.n": %w`, err)
		}
	}
	if hasMatmul {
		if err := ks.matmulSpec().Validate(); err != nil {
			return fmt.Errorf(`"kernel.n": %w`, err)
		}
	}
	return nil
}

// variantList resolves the variant axis: the Variants list, or the single
// Variant (default hybrid-full).
func (c *KernelConfig) variantList() ([]jacobi.Variant, error) {
	if len(c.Variants) > 0 {
		if c.Variant != "" {
			return nil, fmt.Errorf(`set either "kernel.variant" or "kernel.variants", not both`)
		}
		return parseAxis("kernel.variants", c.Variants, parseVariant)
	}
	v, err := parseVariant(c.Variant)
	if err != nil {
		return nil, fmt.Errorf(`"kernel.variant": %w`, err)
	}
	return []jacobi.Variant{v}, nil
}

// sweep resolves the section's defaults once for every kernel it drives:
// hybrid-full, write-back, 20 syncbench rounds, and one warmup and one
// measured jacobi iteration (a measured count alone keeps warmup 0; a
// warmup alone measures one). The section must have passed validate, so
// the axis parses cannot fail here.
func (c *KernelConfig) sweep() (kernelSweep, error) {
	variants, err := c.variantList()
	if err != nil {
		return kernelSweep{}, err
	}
	policies, err := parseAxis("kernel.policies", c.Policies, parsePolicy)
	if err != nil {
		return kernelSweep{}, err
	}
	if len(policies) == 0 {
		policies = []cache.Policy{cache.WriteBack}
	}
	ks := kernelSweep{
		n:        c.N,
		variants: variants,
		policies: policies,
		cachesKB: c.CacheKB,
		cores:    c.Cores,
		rounds:   cmp.Or(c.Rounds, 20),
		warmup:   c.Warmup,
		measured: c.Measured,
	}
	if ks.warmup == 0 && ks.measured == 0 {
		ks.warmup = 1
	}
	ks.measured = cmp.Or(ks.measured, 1)
	return ks, nil
}

// seedList resolves the seed axis: explicit Seeds, or Replications seeds
// counting up from BaseSeed (default one seed, 1).
func (s *Scenario) seedList() []int64 {
	if len(s.Seeds) > 0 {
		return s.Seeds
	}
	base := s.BaseSeed
	if base == 0 {
		base = 1
	}
	n := s.Replications
	if n == 0 {
		n = 1
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = base + int64(i)
	}
	return seeds
}

// NumPoints returns the size of the sweep cross-product: the length of
// the canonical point list (0 for a scenario that would not pass
// Validate).
func (s *Scenario) NumPoints() int {
	ps, err := s.points()
	if err != nil {
		return 0
	}
	return len(ps)
}

// fabrics and routers resolve the section's topology and router axes.
func (c *NoCConfig) fabrics() ([]noc.Topology, error) {
	return buildFabrics("noc", c.Topologies, c.Width, c.Height)
}

func (c *NoCConfig) routers() ([]noc.RouterKind, error) {
	return routerAxis("noc", c.Routers)
}

// parseAxis resolves one sweep axis: every entry must parse (a named
// axis through its enum.Table's Parse, a numeric one through its bound)
// and no two may resolve to the same value, so "wb" and "write-back"
// repeat each other. field is the JSON path the error messages name.
// Validate and the runners both resolve their axes through it, so an
// entry can never pass one and fail the other.
func parseAxis[S any, K comparable](field string, entries []S, parse func(S) (K, error)) ([]K, error) {
	seen := map[K]bool{}
	out := make([]K, 0, len(entries))
	for _, e := range entries {
		k, err := parse(e)
		if err != nil {
			return nil, fmt.Errorf("%q: %w", field, err)
		}
		if seen[k] {
			return nil, fmt.Errorf("%q: %v listed twice", field, k)
		}
		seen[k] = true
		out = append(out, k)
	}
	return out, nil
}

// asIs is the parse of an axis whose bounds the simulator's own config
// holds: parseAxis only rejects its repeats.
func asIs[T any](v T) (T, error) { return v, nil }

// buildFabrics resolves a section's topology axis (none named: the
// paper's folded torus) and builds every fabric on the w x h endpoint
// grid.
func buildFabrics(section string, names []string, w, h int) ([]noc.Topology, error) {
	kinds, err := parseAxis(section+".topologies", names, noc.ParseTopology)
	if err != nil {
		return nil, err
	}
	if len(kinds) == 0 {
		kinds = []noc.TopologyKind{noc.TopoTorus}
	}
	topos, err := buildKinds(kinds, w, h)
	if err != nil {
		return nil, fmt.Errorf("%q: %w", section, err)
	}
	return topos, nil
}

// maxRouteTableBytes bounds the route tables one point of a scenario
// builds. They grow as switches x endpoints, so a grid a constructor
// accepts (up to 256 a side) could otherwise ask a served job for
// hundreds of gigabytes.
const maxRouteTableBytes = 64 << 20

// buildKinds builds one fabric per kind on the w x h endpoint grid, each
// within the route-table bound.
func buildKinds(kinds []noc.TopologyKind, w, h int) ([]noc.Topology, error) {
	topos := make([]noc.Topology, len(kinds))
	for i, k := range kinds {
		topo, err := noc.NewTopologyOfKind(k, w, h)
		if err != nil {
			return nil, err
		}
		if b := topo.RouteTableBytes(); b > maxRouteTableBytes {
			sw, sh := topo.Dims()
			return nil, fmt.Errorf("a %dx%d %v grid needs %d switches x %d endpoints x %d B = %d MiB of route tables per point, over the %d MiB limit",
				w, h, k, sw*sh, topo.NumEndpoints(), noc.RouteBytes, b>>20, maxRouteTableBytes>>20)
		}
		topos[i] = topo
	}
	return topos, nil
}

// routerAxis resolves a section's router axis (none named: the paper's
// deflection router).
func routerAxis(section string, names []string) ([]noc.RouterKind, error) {
	routers, err := parseAxis(section+".routers", names, noc.ParseRouter)
	if err == nil && len(routers) == 0 {
		routers = []noc.RouterKind{noc.RouterDeflection}
	}
	return routers, err
}

// parseVariant resolves a programming-model variant, defaulting the empty
// string to the paper's headline hybrid-full model.
func parseVariant(s string) (jacobi.Variant, error) {
	if strings.TrimSpace(s) == "" {
		return jacobi.HybridFull, nil
	}
	return jacobi.ParseVariant(s)
}

func parsePolicy(s string) (cache.Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "wb", "write-back", "writeback":
		return cache.WriteBack, nil
	case "wt", "write-through", "writethrough":
		return cache.WriteThrough, nil
	}
	return 0, fmt.Errorf("unknown cache policy %q (have: write-back/wb, write-through/wt)", s)
}
