package jacobi

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
)

// Result summarizes one Jacobi run. It is also the scenario runner's
// cached value of a jacobi point: the json tags are stored bytes, and a
// field tagged "-" is not stored (a recalled Result has no Spec, Variant
// or Cfg).
type Result struct {
	Spec    Spec        `json:"-"`
	Variant Variant     `json:"-"`
	Cfg     core.Config `json:"-"`

	// CyclesPerIteration is the paper's metric: execution time in clock
	// cycles of one Jacobi iteration after cache warm-up.
	CyclesPerIteration int64 `json:"cycles_per_iter"`
	// MissRate is the mean L1 miss rate across active compute cores.
	MissRate float64 `json:"miss_rate"`
	// MPMMUBusy is the number of cycles the memory node was serving a
	// transaction.
	MPMMUBusy int64 `json:"mpmmu_busy"`
	// NoCFlits is the number of flits delivered by the network.
	NoCFlits int64 `json:"noc_flits"`
	// TotalCycles is the full run length including warm-up.
	TotalCycles int64 `json:"total_cycles"`
	// AvgFlitLatency is the mean inject-to-eject flit latency.
	AvgFlitLatency float64 `json:"flit_latency"`
	// Deflections is the total number of deflected hops.
	Deflections int64 `json:"deflections"`
	// CyclesSkipped counts cycles the engine fast-forwarded over instead
	// of ticking (a performance counter; every measured figure is
	// byte-identical whatever its value).
	CyclesSkipped int64 `json:"-"`
}

// DefaultBudget is the cycle budget for a single run; reaching it means
// deadlock/livelock and fails the run.
const DefaultBudget = 200_000_000

// RunOption customizes a RunCtx.
type RunOption func(*runOptions)

type runOptions struct {
	systemHook func(*core.System) error
}

// WithSystemHook runs fn on the freshly built system before programs are
// launched — e.g. to attach a VCD tracer or extra instrumentation.
func WithSystemHook(fn func(*core.System) error) RunOption {
	return func(o *runOptions) { o.systemHook = fn }
}

// RunCtx builds a MEDEA system for cfg, executes the Jacobi workload in
// the given variant, verifies the numerical result against the sequential
// reference, and returns the measurements. A canceled context stops the
// simulation mid-run (within a few thousand simulated cycles of wall
// time) and unwinds the kernel programs, so a canceled sweep point costs
// bounded time and leaks nothing.
func RunCtx(ctx context.Context, cfg core.Config, spec Spec, variant Variant, opts ...RunOption) (Result, error) {
	var ro runOptions
	for _, o := range opts {
		o(&ro)
	}
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}
	sys, err := core.Build(cfg)
	if err != nil {
		return Result{}, err
	}
	if ro.systemHook != nil {
		if err := ro.systemHook(sys); err != nil {
			return Result{}, err
		}
	}
	blocks := Partition(spec.N, cfg.NumCompute)
	Preload(sys.DDR, sys.Map, spec.N, blocks)

	layFor := func(rank int) Layout { return NewLayout(sys.Map, spec.N, blocks[rank]) }
	progs, sh := Programs(spec, variant, blocks, sys.RankNodes(), layFor)
	sys.Launch(progs)
	if err := sys.RunCtx(ctx, DefaultBudget); err != nil {
		return Result{}, fmt.Errorf("jacobi: %v %v on %d cores: %w", spec, variant, cfg.NumCompute, err)
	}
	if err := Verify(sys, spec, blocks); err != nil {
		return Result{}, err
	}

	res := Result{
		Spec: spec, Variant: variant, Cfg: sys.Cfg,
		CyclesPerIteration: sh.MeasuredCycles(spec.Measured),
		TotalCycles:        sys.Cycles(),
		NoCFlits:           sys.Net.Stats.Delivered.Value(),
		AvgFlitLatency:     sys.Net.Stats.Latency.Mean(),
		Deflections:        sys.Net.TotalDeflections(),
		MPMMUBusy:          sys.MPMMUBusyTotal(),
		CyclesSkipped:      sys.Engine.CyclesSkipped(),
	}
	var mrSum float64
	var active int
	for r, p := range sys.Procs {
		if blocks[r].Active() {
			mrSum += p.Cache.Stats.MissRate()
			active++
		}
	}
	if active > 0 {
		res.MissRate = mrSum / float64(active)
	}
	return res, nil
}

// Verify checks the grid produced by a completed run against the
// sequential reference, element by element and bit-exact: the parallel
// kernels evaluate the stencil in the same floating-point order as the
// reference, so any difference indicates a simulation bug (lost update,
// stale halo, reordered write).
func Verify(sys *core.System, spec Spec, blocks []Block) error {
	sys.DrainCaches()
	ref := Reference(spec.N, spec.Iterations())
	final := 0
	if spec.Iterations()%2 == 1 {
		final = 1
	}
	for _, b := range blocks {
		if !b.Active() {
			continue
		}
		l := NewLayout(sys.Map, spec.N, b)
		for lr := 1; lr <= b.Rows; lr++ {
			gr := l.GridRow(lr)
			for col := 1; col < spec.N-1; col++ {
				got := sys.DDR.ReadFloat64(l.Addr(final, lr, col))
				want := ref[gr][col]
				if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
					return fmt.Errorf("jacobi: rank %d element (%d,%d): got %v want %v",
						b.Rank, gr, col, got, want)
				}
			}
		}
	}
	return nil
}
