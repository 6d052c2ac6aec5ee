package scenario

import (
	"context"
	"fmt"

	"repro/internal/enum"
	"repro/internal/resultcache"
)

// WorkloadKind selects what a scenario point simulates. The workload is
// the fourth sweep axis, next to the network's topology, router and
// pattern axes: every kind is resolved by name through ParseWorkload
// (an enum.Table, as noc.ParseRouter and ParseTopology are), expands into
// points through one switch (Scenario.points), and renders through its
// own schema (the kind's column list in output.go). The set of kinds is
// closed inside this package (like noc.Router); adding one means a
// constant and its name here, a case in points and a column list, and
// every listing flag, validation message and fuzz corpus picks it up
// through WorkloadNames.
type WorkloadKind int

// The six workload kinds. The first three are compute kernels
// on the full MEDEA system (cores + caches + MPMMU over the NoC), sharing
// the kernel sweep axes (variants x policies x caches x cores) and one
// expansion (kernelPoints); the rest drive the bare network:
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

var workloads = enum.New[WorkloadKind]("scenario", "workload", []string{
	WorkloadJacobi:    "jacobi",
	WorkloadMatmul:    "matmul",
	WorkloadSyncbench: "syncbench",
	WorkloadNoC:       "noc-synthetic",
	WorkloadTrace:     "trace",
	WorkloadService:   "service",
})

// String implements fmt.Stringer; the names are the scenario JSON and CLI
// vocabulary.
func (k WorkloadKind) String() string { return workloads.String(k) }

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
func AllWorkloads() []WorkloadKind { return workloads.All() }

// WorkloadNames returns the canonical names of every workload kind, for
// flag documentation and error messages.
func WorkloadNames() []string { return workloads.Names() }

// ParseWorkload resolves a workload kind from its canonical name (as
// printed by WorkloadKind.String) or its numeric value, by the rules of
// enum.Table.Parse.
func ParseWorkload(s string) (WorkloadKind, error) { return workloads.Parse(s) }

// point is one point of a scenario's canonical order: it runs that point
// against the result cache it is given (nil: cache off) and returns its
// row. The Scenario label and the cross-point Speedup are the runner's.
type point func(ctx context.Context, rc *resultcache.Cache) (Result, error)

// points expands the (already validated) scenario into its canonical
// point list: one block per workload kind in the order the workload axis
// names them, each block in its kind's canonical axis order. RunCtx,
// RunShardCtx, NumPoints and MergeShards all read this one list, so a
// point's index means the same thing to each of them. Expansion resolves
// the axes and builds the fabrics but simulates nothing and converts no
// trace event; the work points share (a sweep's injection streams, a
// window group's warm prefix, a trace's replay events) hangs off state
// the expansion allocates, so one expansion is one run's.
func (s *Scenario) points() ([]point, error) {
	kinds, err := s.workloadKinds()
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	var all []point
	for _, k := range kinds {
		var ps []point
		switch k {
		case WorkloadJacobi, WorkloadMatmul, WorkloadSyncbench:
			ps, err = kernelPoints(s, k)
		case WorkloadNoC:
			ps, err = nocPoints(s)
		case WorkloadTrace:
			ps, err = tracePoints(s)
		case WorkloadService:
			ps, err = servicePoints(s)
		default:
			err = fmt.Errorf("scenario: no implementation for workload kind %d", int(k))
		}
		if err != nil {
			return nil, err
		}
		all = append(all, ps...)
	}
	return all, nil
}
