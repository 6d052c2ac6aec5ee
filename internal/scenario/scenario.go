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
// through each workload's column lists (Render).
//
// Every axis is resolved by name through the same registry idiom
// (ParseWorkload here; noc.ParsePattern, noc.ParseRouter and
// noc.ParseTopology for the network axes), so the format exists without
// new Go code: any configuration the cmd/ binaries can reach by flags —
// and sweeps over cross-products of them that the binaries cannot
// express — is one JSON file away. Every workload is an enumeration of
// jobs in canonical order plus a per-point function handed to par.Sweep,
// the one sweep loop; kernel points execute through dse.KernelSweepCtx,
// the path shared with the figure sweeps and cmd/medea-experiments (the
// fig8-quick and kernel-ablation golden tests are byte- and point-exact
// for that reason), and noc points through noc.MeasureCtx's path, shared
// with cmd/medea-noc (one sweep call's points share a noc.Schedules store
// of their sources' injection streams, byte-identically).
// TestExampleRootsGolden pins the rows of every shipped file.
//
// A file declares what to simulate; how a run executes is its caller's,
// handed down as values by whoever owns the run: the result cache
// (Scenario.Cache), trace capture (Scenario.Record, through RecordCtx),
// fast-forward (sim.WithoutFastForward on the context) and sharding
// (internal/shard's Coordinator, which the CLIs drive from -shards). None
// of them can change a rendered byte.
//
// See examples/scenarios/ for ready-to-run files, REPRODUCING.md for the
// figure/table map, and cmd/medea-scenarios for the CLI driver.
package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/cache"
	"repro/internal/dse"
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
	// Output is the default rendering: "table" (default), "csv" or "json".
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
	Burst *BurstConfig `json:"burst,omitempty"`
	// WarmupCycles run before measurement starts (default 0).
	WarmupCycles int64 `json:"warmup_cycles,omitempty"`
	// MeasureCycles is the measurement window (default 5000). Mutually
	// exclusive with MeasureWindows.
	MeasureCycles int64 `json:"measure_cycles,omitempty"`
	// MeasureWindows sweeps the measurement-window length itself: every
	// point runs once per listed window, and all windows of one
	// (topology, router, pattern, rate, seed) point share a single warmup
	// prefix via an engine snapshot instead of re-simulating it (see
	// noc.MeasureWindowsCtx). Results are byte-identical to independent
	// runs. Mutually exclusive with MeasureCycles.
	MeasureWindows []int64 `json:"measure_windows,omitempty"`
}

// BurstConfig mirrors noc.BurstConfig in the JSON schema.
type BurstConfig struct {
	MeanOn  float64 `json:"mean_on"`
	MeanOff float64 `json:"mean_off"`
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
		return fmt.Errorf(`"trace.file" must name a recorded trace (record one with medea-scenarios -record or medea-noc -record)`)
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
	Burst *BurstConfig `json:"burst,omitempty"`
	// WarmupCycles run before measurement starts (default 0).
	WarmupCycles int64 `json:"warmup_cycles,omitempty"`
	// MeasureCycles is the measurement window (default 5000).
	MeasureCycles int64 `json:"measure_cycles,omitempty"`
}

func (c *ServiceConfig) validate() error {
	topos, err := c.fabrics()
	if err != nil {
		return err
	}
	if _, err := c.routers(); err != nil {
		return err
	}
	if c.Servers < 1 {
		return fmt.Errorf(`"service.servers" must be >= 1, got %d`, c.Servers)
	}
	endpoints := topos[0].NumEndpoints()
	if c.Servers >= endpoints {
		return fmt.Errorf(`"service.servers": %d servers on the %dx%d grid's %d endpoints must leave at least one client; use at most %d servers`,
			c.Servers, c.Width, c.Height, endpoints, endpoints-1)
	}
	if len(c.ArrivalRates) == 0 {
		return fmt.Errorf(`"service.arrival_rates" must list at least one per-client rate in (0, 1]`)
	}
	for _, r := range c.ArrivalRates {
		if !(r > 0 && r <= 1) { // written positively: NaN is outside
			return fmt.Errorf(`"service.arrival_rates": rate %g outside (0, 1]`, r)
		}
	}
	if c.ThinkTime < 0 {
		return fmt.Errorf(`"service.think_time" must be >= 0, got %d`, c.ThinkTime)
	}
	if c.ResponseFlits < 0 {
		return fmt.Errorf(`"service.response_flits" must be >= 0, got %d`, c.ResponseFlits)
	}
	if c.HotspotSkew < 0 || c.HotspotSkew > 1 {
		return fmt.Errorf(`"service.hotspot_skew" must be in [0, 1], got %g`, c.HotspotSkew)
	}
	if c.QueueCap < 0 {
		return fmt.Errorf(`"service.queue_cap" must be >= 0, got %d`, c.QueueCap)
	}
	if c.Burst != nil {
		if err := (noc.BurstConfig{MeanOn: c.Burst.MeanOn, MeanOff: c.Burst.MeanOff}).Validate(); err != nil {
			return fmt.Errorf(`"service.burst": %w`, err)
		}
	}
	if c.WarmupCycles < 0 {
		return fmt.Errorf(`"service.warmup_cycles" must be >= 0, got %d`, c.WarmupCycles)
	}
	if c.MeasureCycles < 0 {
		return fmt.Errorf(`"service.measure_cycles" must be >= 0, got %d`, c.MeasureCycles)
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
	// 30 and 60), the matrix edge for matmul (2..64). A syncbench-only
	// scenario has no problem size.
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
	seen := map[WorkloadKind]bool{}
	kinds := make([]WorkloadKind, 0, len(s.Workloads))
	for _, name := range s.Workloads {
		k, err := ParseWorkload(name)
		if err != nil {
			return nil, fmt.Errorf(`"workloads": %w`, err)
		}
		if !k.IsKernel() {
			return nil, fmt.Errorf(`"workloads" sweeps the kernel workloads (%s); run %v through "workload"`,
				strings.Join(kernelWorkloadNames(), ", "), k)
		}
		if seen[k] {
			return nil, fmt.Errorf(`"workloads": %v listed twice`, k)
		}
		seen[k] = true
		kinds = append(kinds, k)
	}
	return kinds, nil
}

// kernelWorkloadNames lists the kernel subset of WorkloadNames.
func kernelWorkloadNames() []string {
	var names []string
	for _, k := range AllWorkloads() {
		if k.IsKernel() {
			names = append(names, k.String())
		}
	}
	return names
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
	if s.Parallelism < 0 {
		return fmt.Errorf("parallelism must be >= 0, got %d", s.Parallelism)
	}

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

func (c *NoCConfig) validate() error {
	// Resolve the topology axis first: every listed fabric must build at
	// this size, and every pattern must be valid on every fabric.
	topos, err := c.fabrics()
	if err != nil {
		return err
	}
	if len(c.Patterns) == 0 {
		return fmt.Errorf(`"noc.patterns" must list at least one of: %s`,
			strings.Join(noc.PatternNames(), ", "))
	}
	seen := map[noc.Pattern]bool{}
	for _, name := range c.Patterns {
		p, err := noc.ParsePattern(name)
		if err != nil {
			return fmt.Errorf(`"noc.patterns": %w`, err)
		}
		for _, topo := range topos {
			if err := noc.ValidatePattern(p, topo); err != nil {
				return fmt.Errorf(`"noc.patterns": %w`, err)
			}
		}
		if seen[p] {
			return fmt.Errorf(`"noc.patterns": %v listed twice`, p)
		}
		seen[p] = true
	}
	if _, err := c.routers(); err != nil {
		return err
	}
	if len(c.Rates) == 0 {
		return fmt.Errorf(`"noc.rates" must list at least one offered load in (0, 1]`)
	}
	for _, r := range c.Rates {
		if !(r > 0 && r <= 1) { // written positively: NaN is outside
			return fmt.Errorf(`"noc.rates": offered load %g outside (0, 1]`, r)
		}
	}
	if c.HotspotNode < 0 || c.HotspotNode >= topos[0].NumEndpoints() {
		return fmt.Errorf(`"noc.hotspot_node" %d outside the %dx%d endpoint grid (0..%d)`,
			c.HotspotNode, c.Width, c.Height, topos[0].NumEndpoints()-1)
	}
	if c.QueueCap < 0 {
		return fmt.Errorf(`"noc.queue_cap" must be >= 0, got %d`, c.QueueCap)
	}
	if c.Burst != nil {
		if err := (noc.BurstConfig{MeanOn: c.Burst.MeanOn, MeanOff: c.Burst.MeanOff}).Validate(); err != nil {
			return fmt.Errorf(`"noc.burst": %w`, err)
		}
	}
	if c.WarmupCycles < 0 {
		return fmt.Errorf(`"noc.warmup_cycles" must be >= 0, got %d`, c.WarmupCycles)
	}
	if c.MeasureCycles < 0 {
		return fmt.Errorf(`"noc.measure_cycles" must be >= 0, got %d`, c.MeasureCycles)
	}
	if len(c.MeasureWindows) > 0 {
		if c.MeasureCycles != 0 {
			return fmt.Errorf(`set either "noc.measure_cycles" or "noc.measure_windows", not both`)
		}
		for _, w := range c.MeasureWindows {
			if w <= 0 {
				return fmt.Errorf(`"noc.measure_windows": window %d must be positive`, w)
			}
		}
	}
	return nil
}

func (c *KernelConfig) validate(kinds []WorkloadKind) error {
	hasJacobi := hasKind(kinds, WorkloadJacobi)
	hasMatmul := hasKind(kinds, WorkloadMatmul)
	hasSync := hasKind(kinds, WorkloadSyncbench)

	if hasJacobi && c.N < 3 {
		return fmt.Errorf(`"kernel.n" must be >= 3 for jacobi (the paper uses 16, 30 and 60), got %d`, c.N)
	}
	if hasMatmul && (c.N < 2 || c.N > 64) {
		return fmt.Errorf(`"kernel.n" must be in 2..64 for matmul, got %d`, c.N)
	}
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
	for _, n := range c.Cores {
		if n < 2 || n > 15 {
			return fmt.Errorf(`"kernel.cores": %d outside the architecture's 2..15 range`, n)
		}
	}
	if len(c.CacheKB) == 0 {
		return fmt.Errorf(`"kernel.cache_kb" must list at least one L1 size in kB`)
	}
	for _, kb := range c.CacheKB {
		if kb <= 0 {
			return fmt.Errorf(`"kernel.cache_kb": %d must be positive`, kb)
		}
	}
	for _, p := range c.Policies {
		if _, err := parsePolicy(p); err != nil {
			return fmt.Errorf(`"kernel.policies": %w`, err)
		}
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
	return nil
}

// variantList resolves the variant axis: the Variants list, or the single
// Variant (default hybrid-full).
func (c *KernelConfig) variantList() ([]jacobi.Variant, error) {
	if len(c.Variants) > 0 {
		if c.Variant != "" {
			return nil, fmt.Errorf(`set either "kernel.variant" or "kernel.variants", not both`)
		}
		seen := map[jacobi.Variant]bool{}
		out := make([]jacobi.Variant, 0, len(c.Variants))
		for _, name := range c.Variants {
			v, err := parseVariant(name)
			if err != nil {
				return nil, fmt.Errorf(`"kernel.variants": %w`, err)
			}
			if seen[v] {
				return nil, fmt.Errorf(`"kernel.variants": %v listed twice`, v)
			}
			seen[v] = true
			out = append(out, v)
		}
		return out, nil
	}
	v, err := parseVariant(c.Variant)
	if err != nil {
		return nil, fmt.Errorf(`"kernel.variant": %w`, err)
	}
	return []jacobi.Variant{v}, nil
}

// kernelSweepOptions maps the scenario's kernel section onto the shared
// dse.KernelSweepCtx options for one kernel. The scenario must have passed
// Validate, so the axis parses cannot fail here.
func (s *Scenario) kernelSweepOptions(k dse.Kernel) (dse.KernelOptions, error) {
	c := s.Kernel
	variants, err := c.variantList()
	if err != nil {
		return dse.KernelOptions{}, err
	}
	var policies []cache.Policy // nil when unset, as in dse's own options
	for _, ps := range c.Policies {
		p, err := parsePolicy(ps)
		if err != nil {
			return dse.KernelOptions{}, err
		}
		policies = append(policies, p)
	}
	o := dse.KernelOptions{
		Kernel:      k,
		N:           c.N,
		Rounds:      c.Rounds,
		Cores:       c.Cores,
		CachesKB:    c.CacheKB,
		Policies:    policies,
		Variants:    variants,
		Warmup:      c.Warmup,
		Measured:    c.Measured,
		Parallelism: s.Parallelism,
		Cache:       s.Cache,
	}
	if s.Record != nil { // a nil *trace.Trace in the interface is not nil
		o.Record = s.Record
	}
	return o, nil
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

// NumPoints returns the size of the sweep cross-product.
func (s *Scenario) NumPoints() int {
	kinds, err := s.workloadKinds()
	if err != nil {
		return 0
	}
	n := 0
	for _, k := range kinds {
		n += s.kindPoints(k)
	}
	return n
}

// kindPoints returns the number of sweep points one workload kind
// contributes, matching the canonical point order its Run produces (0 for
// a scenario that would not pass Validate).
func (s *Scenario) kindPoints(k WorkloadKind) int {
	switch k {
	case WorkloadNoC:
		topos, _ := s.NoC.fabrics()
		routers, _ := s.NoC.routers()
		n := len(topos) * len(routers) * len(s.NoC.Patterns) * len(s.NoC.Rates) * len(s.seedList())
		if w := len(s.NoC.MeasureWindows); w > 0 {
			n *= w
		}
		return n
	case WorkloadTrace:
		t, err := s.Trace.load()
		if err != nil {
			return 0
		}
		topos, _ := s.Trace.fabrics(t)
		routers, _ := s.Trace.routers(t)
		return len(topos) * len(routers)
	case WorkloadService:
		topos, _ := s.Service.fabrics()
		routers, _ := s.Service.routers()
		return len(topos) * len(routers) * len(s.Service.ArrivalRates) * len(s.seedList())
	}
	c := s.Kernel
	pols := len(c.Policies)
	if pols == 0 {
		pols = 1
	}
	variants := len(c.Variants)
	if variants == 0 {
		variants = 1
	}
	return variants * pols * len(c.CacheKB) * len(c.Cores)
}

// fabrics and routers resolve the section's topology and router axes.
func (c *NoCConfig) fabrics() ([]noc.Topology, error) {
	return buildFabrics("noc", c.Topologies, c.Width, c.Height)
}

func (c *NoCConfig) routers() ([]noc.RouterKind, error) {
	return routerAxis("noc", c.Routers)
}

// parseAxis resolves one named sweep axis: every name must parse and none
// may repeat. field is the JSON path the error messages name. Validate
// and the runners both resolve their axes through it, so a name can never
// pass one and fail the other.
func parseAxis[K comparable](field string, names []string, parse func(string) (K, error)) ([]K, error) {
	seen := map[K]bool{}
	out := make([]K, 0, len(names))
	for _, name := range names {
		k, err := parse(name)
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
