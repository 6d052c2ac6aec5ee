// Package syncbench measures synchronization primitives in isolation:
// barrier latency versus core count for the eMPI message barrier, the
// lock-based shared-memory barrier, and uncached-flag signalling. It
// quantifies the paper's central claim — "low-latency synchronization is
// hard to achieve through the memory hierarchy" — directly, without a
// compute workload around it, and backs the S-1 entry of DESIGN.md's
// experiment index with numbers.
package syncbench

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/empi"
	"repro/internal/pe"
)

// Kind selects the synchronization mechanism under test.
type Kind int

const (
	// MessageBarrier is eMPI's gather+release over the TIE path.
	MessageBarrier Kind = iota
	// LockBarrier is the sense-reversing barrier with the MPMMU lock
	// queue and DII-based polling (the paper's shared-memory recipe).
	LockBarrier
	// FlagSignal is a single producer->consumer notification through an
	// uncached shared-memory flag, the cheapest memory-path primitive.
	FlagSignal
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case MessageBarrier:
		return "empi-barrier"
	case LockBarrier:
		return "lock-barrier"
	case FlagSignal:
		return "flag-signal"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Result is the measured cost of one synchronization episode. It is also
// the scenario runner's cached value of a syncbench point, stored under
// its json tags (the kind, cores and rounds are the point's key, not its
// value).
type Result struct {
	Kind   Kind `json:"-"`
	Cores  int  `json:"-"`
	Rounds int  `json:"-"`
	// CyclesPerRound is the mean cycles per episode, measured at rank 0
	// across Rounds back-to-back episodes with deterministic per-rank
	// arrival skew.
	CyclesPerRound int64 `json:"cycles"`
	// MPMMUBusy is the memory-node occupancy accumulated over the run —
	// the serialization the hybrid approach avoids.
	MPMMUBusy int64 `json:"mpmmu_busy"`
	// NoCFlits is the message-path traffic over the run.
	NoCFlits int64 `json:"noc_flits"`
	// CyclesSkipped counts cycles the engine fast-forwarded over instead
	// of ticking (a performance counter; every measured figure above is
	// byte-identical whatever its value).
	CyclesSkipped int64 `json:"-"`
}

// MeasureWithCtx runs rounds synchronization episodes on the system
// described by cfg (cfg.NumCompute cores take part) and returns the
// averaged cost. The scenario runner's syncbench points measure through
// it. A
// canceled context stops the simulation mid-run and unwinds the benchmark
// programs, so a canceled sweep point costs bounded time and leaks
// nothing. Errors inside the benchmark kernels (e.g. a communicator that
// fails to build) fail the run with an error rather than panicking.
func MeasureWithCtx(ctx context.Context, kind Kind, cfg core.Config, rounds int) (Result, error) {
	cores := cfg.NumCompute
	if cores < 1 || (kind == FlagSignal && cores < 2) {
		return Result{}, fmt.Errorf("syncbench: %v needs enough cores, got %d", kind, cores)
	}
	if rounds < 1 {
		return Result{}, fmt.Errorf("syncbench: rounds must be positive")
	}
	sys, err := core.Build(cfg)
	if err != nil {
		return Result{}, err
	}
	return MeasureOn(ctx, kind, sys, rounds)
}

// MeasureOn runs the episodes on a freshly built system; split from
// MeasureWithCtx, which validates its arguments, so the differential tests
// in internal/pe can read the system's counters afterwards.
func MeasureOn(ctx context.Context, kind Kind, sys *core.System, rounds int) (Result, error) {
	cores := sys.Cfg.NumCompute
	t0 := make([]int64, cores)
	t1 := make([]int64, cores)
	progs := make([]pe.Program, cores)
	nodes := sys.RankNodes()
	for r := range progs {
		r := r
		progs[r] = func(env *pe.Env) {
			runKernel(env, kind, sys, nodes, r, rounds, t0, t1)
		}
	}
	sys.Launch(progs)
	if err := sys.RunCtx(ctx, 100_000_000); err != nil {
		return Result{}, fmt.Errorf("syncbench %v on %d cores: %w", kind, cores, err)
	}
	return Result{
		Kind: kind, Cores: cores, Rounds: rounds,
		CyclesPerRound: (t1[0] - t0[0]) / int64(rounds),
		MPMMUBusy:      sys.MPMMUBusyTotal(),
		NoCFlits:       sys.Net.Stats.Delivered.Value(),
		CyclesSkipped:  sys.Engine.CyclesSkipped(),
	}, nil
}

func runKernel(env *pe.Env, kind Kind, sys *core.System, nodes []int, rank, rounds int, t0, t1 []int64) {
	switch kind {
	case MessageBarrier:
		comm, err := empi.New(env, nodes)
		if err != nil {
			// Fail this rank's core instead of panicking: MeasureWithCtx
			// returns the error as a per-run failure instead of the
			// process dying.
			env.Fail(fmt.Errorf("syncbench: rank %d: %w", rank, err))
		}
		comm.Barrier() // align
		t0[rank] = env.Now()
		for k := 0; k < rounds; k++ {
			env.Compute(int64((rank*13+k*7)%50) + 1) // deterministic skew
			comm.Barrier()
		}
		t1[rank] = env.Now()
	case LockBarrier:
		count, sense := sys.Map.SharedAddr(0x40), sys.Map.SharedAddr(0x80)
		var phase uint32
		env.SharedBarrier(count, sense, len(nodes), &phase)
		t0[rank] = env.Now()
		for k := 0; k < rounds; k++ {
			env.Compute(int64((rank*13+k*7)%50) + 1)
			env.SharedBarrier(count, sense, len(nodes), &phase)
		}
		t1[rank] = env.Now()
	case FlagSignal:
		flag := sys.Map.SharedAddr(0x100)
		if rank == 0 {
			t0[0] = env.Now()
			for k := 0; k < rounds; k++ {
				env.StoreWordUncached(flag, uint32(2*k+1)) // signal
				for env.LoadWordUncached(flag) != uint32(2*k+2) {
				} // await ack
			}
			t1[0] = env.Now()
			return
		}
		if rank == 1 {
			for k := 0; k < rounds; k++ {
				for env.LoadWordUncached(flag) != uint32(2*k+1) {
				}
				env.StoreWordUncached(flag, uint32(2*k+2))
			}
		}
	}
}
