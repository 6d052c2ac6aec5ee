package scenario

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/dse"
)

// WorkloadKind selects what a scenario point simulates. The workload is
// the fourth pluggable sweep axis, next to the network's topology, router
// and pattern axes: every kind is resolved by name through ParseWorkload
// (mirroring noc.ParseRouter/ParseTopology), executes through one
// registry-dispatched path, and renders through its own schema. The set
// of implementations is closed inside this package (like noc.Router);
// adding a kind means adding a Workload implementation and a constant
// here, and every listing flag, validation message and fuzz corpus picks
// it up through the registry.
type WorkloadKind int

// The six workload implementations. The first three are compute kernels
// on the full MEDEA system (cores + caches + MPMMU over the NoC), sharing
// the kernel sweep axes (variants x policies x caches x cores) and the
// dse.KernelSweepCtx execution path; the rest drive the bare network:
// noc-synthetic with generated traffic, trace with recorded traffic, and
// service with request/response traffic.
const (
	// WorkloadJacobi runs the paper's Jacobi application: per-iteration
	// halo exchange, the latency-bound communication profile.
	WorkloadJacobi WorkloadKind = iota
	// WorkloadMatmul runs the future-work matrix multiply: one bulk
	// broadcast, the bandwidth-bound communication profile.
	WorkloadMatmul
	// WorkloadSyncbench runs bare synchronization episodes: barriers with
	// no compute around them.
	WorkloadSyncbench
	// WorkloadNoC runs synthetic traffic on the bare network.
	WorkloadNoC
	// WorkloadTrace replays a recorded trace file (see internal/trace)
	// through any router x topology on the bare network.
	WorkloadTrace
	// WorkloadService runs request/response traffic on the bare network:
	// client endpoints issue requests to server endpoints and await
	// responses, with per-request latency breakdowns.
	WorkloadService

	// numWorkloads counts the defined workload kinds (keep it last).
	numWorkloads
)

// String implements fmt.Stringer; the names are the scenario JSON and CLI
// vocabulary.
func (k WorkloadKind) String() string {
	switch k {
	case WorkloadJacobi:
		return "jacobi"
	case WorkloadMatmul:
		return "matmul"
	case WorkloadSyncbench:
		return "syncbench"
	case WorkloadNoC:
		return "noc-synthetic"
	case WorkloadTrace:
		return "trace"
	case WorkloadService:
		return "service"
	}
	return fmt.Sprintf("workload(%d)", int(k))
}

// IsKernel reports whether the kind is a compute kernel on the full MEDEA
// system (sharing the kernel sweep axes), as opposed to a bare-network
// workload. Only kernel kinds may appear in the "workloads" sweep axis.
func (k WorkloadKind) IsKernel() bool {
	switch k {
	case WorkloadJacobi, WorkloadMatmul, WorkloadSyncbench:
		return true
	}
	return false
}

// AllWorkloads returns every defined workload kind in declaration order.
func AllWorkloads() []WorkloadKind {
	out := make([]WorkloadKind, numWorkloads)
	for i := range out {
		out[i] = WorkloadKind(i)
	}
	return out
}

// WorkloadNames returns the canonical names of every workload kind, for
// flag documentation and error messages.
func WorkloadNames() []string {
	names := make([]string, numWorkloads)
	for i := range names {
		names[i] = WorkloadKind(i).String()
	}
	return names
}

// ParseWorkload resolves a workload kind from its canonical name (as
// printed by WorkloadKind.String) or its numeric value. Matching is
// case-insensitive and accepts "_" for "-", mirroring noc.ParseRouter.
func ParseWorkload(s string) (WorkloadKind, error) {
	norm := strings.ReplaceAll(strings.ToLower(strings.TrimSpace(s)), "_", "-")
	for k := WorkloadKind(0); k < numWorkloads; k++ {
		if norm == k.String() {
			return k, nil
		}
	}
	if n, err := strconv.Atoi(norm); err == nil {
		if n >= 0 && n < int(numWorkloads) {
			return WorkloadKind(n), nil
		}
		return 0, fmt.Errorf("scenario: workload index %d out of range [0, %d)", n, int(numWorkloads))
	}
	return 0, fmt.Errorf("scenario: unknown workload %q (have: %s)", s, strings.Join(WorkloadNames(), ", "))
}

// Workload is one pluggable workload implementation: it executes its
// kind's share of a scenario sweep. Its rows render through the kind's
// column lists in output.go (schemas), not through the implementation.
// Implementations live behind ForKind; the set is closed inside this
// package.
type Workload interface {
	// Kind returns the implemented workload kind.
	Kind() WorkloadKind
	// Run executes this kind's sweep for the (already validated)
	// scenario: the full cross-product in deterministic axis order when
	// points is nil, otherwise only the listed indices of that canonical
	// order (strictly increasing and in range), one Result per index. A
	// canceled context stops dispatching new points and interrupts
	// in-flight simulations. On a filtered run cross-point figures (kernel
	// Speedup) are NOT attached; MergeShards recomputes them over the
	// reassembled full series.
	Run(ctx context.Context, s *Scenario, points []int) ([]Result, error)
}

// workloadImpls is the registry; ForKind dispatches through it.
var workloadImpls = [numWorkloads]Workload{
	WorkloadJacobi:    kernelWorkload{WorkloadJacobi, dse.KernelJacobi},
	WorkloadMatmul:    kernelWorkload{WorkloadMatmul, dse.KernelMatmul},
	WorkloadSyncbench: kernelWorkload{WorkloadSyncbench, dse.KernelSyncbench},
	WorkloadNoC:       nocWorkload{},
	WorkloadTrace:     traceWorkload{},
	WorkloadService:   serviceWorkload{},
}

// ForKind returns the singleton implementation of the kind.
func ForKind(k WorkloadKind) Workload {
	if k < 0 || k >= numWorkloads {
		panic(fmt.Sprintf("scenario: no implementation for workload kind %d", int(k)))
	}
	return workloadImpls[k]
}

// kernelWorkload is the shared execution strategy of the three compute
// kernels: resolve the scenario's kernel section into dse.KernelOptions
// and delegate to dse.KernelSweepCtx, the execution path shared with
// every experiment of cmd/medea-experiments (the golden tests depend on
// this).
type kernelWorkload struct {
	kind   WorkloadKind
	kernel dse.Kernel
}

func (kw kernelWorkload) Kind() WorkloadKind { return kw.kind }

// Run executes the kernel sweep, restricted to the listed canonical-order
// indices when points is non-nil (dse.KernelSweepCtx then skips the
// cross-point Speedup attach; MergeShards reapplies it over reassembled
// series).
func (kw kernelWorkload) Run(ctx context.Context, s *Scenario, points []int) ([]Result, error) {
	o, err := s.kernelSweepOptions(kw.kernel)
	if err != nil {
		return nil, err
	}
	o.Points = points
	pts, err := dse.KernelSweepCtx(ctx, o)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	results := make([]Result, len(pts))
	for i, p := range pts {
		results[i] = kw.resultOf(s, p)
	}
	return results, nil
}

// resultOf projects one kernel sweep point onto the kind's Result schema.
func (kw kernelWorkload) resultOf(s *Scenario, p dse.KernelPoint) Result {
	r := Result{
		Scenario: s.Name,
		Workload: kw.kind.String(),
		Variant:  p.Variant.String(),
		Cores:    p.Compute,
		CacheKB:  p.CacheKB,
		Policy:   p.Policy.String(),
		Speedup:  p.Speedup,
	}
	switch kw.kind {
	case WorkloadJacobi:
		r.CyclesPerIter = p.Cycles
		r.MissRate = p.MissRate
		r.AreaMM2 = p.AreaMM2
	case WorkloadMatmul:
		r.TotalCycles = p.Cycles
		r.TransferCycles = p.TransferCycles
		r.MPMMUBusy = p.MPMMUBusy
		r.NoCFlits = p.NoCFlits
	case WorkloadSyncbench:
		r.CyclesPerRound = p.Cycles
		r.MPMMUBusy = p.MPMMUBusy
		r.NoCFlits = p.NoCFlits
	}
	return r
}

// nocWorkload drives synthetic traffic on the bare network; its Run lives
// in run.go next to the per-point measurement.
type nocWorkload struct{}

func (nocWorkload) Kind() WorkloadKind { return WorkloadNoC }

// traceWorkload replays a recorded trace through the replay sweep axes;
// its Run lives in trace.go. Replayed rows carry the noc-synthetic
// schema (a same-fabric replay renders byte-identically to its source
// run).
type traceWorkload struct{}

func (traceWorkload) Kind() WorkloadKind { return WorkloadTrace }

// serviceWorkload drives request/response traffic on the bare network;
// its Run lives in service.go.
type serviceWorkload struct{}

func (serviceWorkload) Kind() WorkloadKind { return WorkloadService }
