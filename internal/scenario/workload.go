package scenario

import (
	"context"
	"fmt"
	"strconv"
	"strings"
)

// WorkloadKind selects what a scenario point simulates. The workload is
// the fourth sweep axis, next to the network's topology, router and
// pattern axes: every kind is resolved by name through ParseWorkload
// (mirroring noc.ParseRouter/ParseTopology), executes through one switch
// (runKind), and renders through its own schema (the kind's column list
// in output.go). The set of kinds is closed inside this package (like
// noc.Router); adding one means a constant here, a case in runKind and a
// column list, and every listing flag, validation message and fuzz
// corpus picks it up through WorkloadNames.
type WorkloadKind int

// The six workload kinds. The first three are compute kernels
// on the full MEDEA system (cores + caches + MPMMU over the NoC), sharing
// the kernel sweep axes (variants x policies x caches x cores) and one
// execution path (runKernel); the rest drive the bare network:
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

// runKind executes kind k's share of a scenario sweep for the (already
// validated) scenario: the full cross-product in deterministic axis order
// when points is nil, otherwise only the listed indices of that canonical
// order (strictly increasing and in range), one Result per index. A
// canceled context stops dispatching new points and interrupts in-flight
// simulations. Cross-point figures (kernel Speedup) are not attached
// here: RunCtx attaches them over the whole run, and MergeShards over the
// reassembled one.
func runKind(ctx context.Context, s *Scenario, k WorkloadKind, points []int) ([]Result, error) {
	switch k {
	case WorkloadJacobi, WorkloadMatmul, WorkloadSyncbench:
		return runKernel(ctx, s, k, points)
	case WorkloadNoC:
		return runNoC(ctx, s, points)
	case WorkloadTrace:
		return runTrace(ctx, s, points)
	case WorkloadService:
		return runService(ctx, s, points)
	}
	return nil, fmt.Errorf("scenario: no implementation for workload kind %d", int(k))
}
