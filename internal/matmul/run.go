package matmul

import (
	"context"
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/empi"
	"repro/internal/jacobi"
	"repro/internal/pe"
)

// Result summarizes one matrix-multiply run. It is also the scenario
// runner's cached value of a matmul point, stored under its json tags as
// jacobi.Result is.
type Result struct {
	Spec    Spec        `json:"-"`
	Variant Variant     `json:"-"`
	Cfg     core.Config `json:"-"`

	// TotalCycles covers B distribution plus compute, barrier to barrier.
	TotalCycles int64 `json:"cycles"`
	// TransferCycles covers only the B distribution phase.
	TransferCycles int64 `json:"transfer_cycles,omitempty"`
	MPMMUBusy      int64 `json:"mpmmu_busy"`
	NoCFlits       int64 `json:"noc_flits"`
	// CyclesSkipped counts cycles the engine fast-forwarded over instead
	// of ticking (a performance counter; the measured figures are
	// byte-identical whatever its value).
	CyclesSkipped int64 `json:"-"`
}

type mmShared struct {
	t0, tMid, t1 []int64
}

// RunCtx executes C = A x B on a MEDEA system in the given variant and
// verifies the product against the sequential reference. A canceled
// context stops the simulation mid-run and unwinds the kernel programs, so
// a canceled sweep point costs bounded time and leaks nothing.
func RunCtx(ctx context.Context, cfg core.Config, spec Spec, variant Variant) (Result, error) {
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}
	sys, err := core.Build(cfg)
	if err != nil {
		return Result{}, err
	}
	return RunOn(ctx, sys, spec, variant)
}

// RunOn executes the workload on a freshly built system; split from
// RunCtx so the differential tests, here and in internal/pe, can read the
// system's counters afterwards.
func RunOn(ctx context.Context, sys *core.System, spec Spec, variant Variant) (Result, error) {
	cfg := sys.Cfg
	blocks := Partition(spec.N, cfg.NumCompute)
	Preload(sys.DDR, sys.Map, spec.N, blocks)

	sh := &mmShared{
		t0:   make([]int64, cfg.NumCompute),
		tMid: make([]int64, cfg.NumCompute),
		t1:   make([]int64, cfg.NumCompute),
	}
	progs := make([]pe.Program, cfg.NumCompute)
	nodes := sys.RankNodes()
	for r := range progs {
		r := r
		progs[r] = func(env *pe.Env) {
			k := &mmKernel{
				env: env, spec: spec, variant: variant,
				blocks: blocks, lay: NewLayout(sys.Map, spec.N, blocks[r]),
				nodeOf: nodes, sh: sh,
			}
			k.run()
		}
	}
	sys.Launch(progs)
	if err := sys.RunCtx(ctx, jacobi.DefaultBudget); err != nil {
		return Result{}, fmt.Errorf("matmul: %v on %d cores: %w", variant, cfg.NumCompute, err)
	}
	if err := verify(sys, spec, blocks); err != nil {
		return Result{}, err
	}
	return Result{
		Spec: spec, Variant: variant, Cfg: sys.Cfg,
		TotalCycles:    sh.t1[0] - sh.t0[0],
		TransferCycles: sh.tMid[0] - sh.t0[0],
		NoCFlits:       sys.Net.Stats.Delivered.Value(),
		MPMMUBusy:      sys.MPMMUBusyTotal(),
		CyclesSkipped:  sys.Engine.CyclesSkipped(),
	}, nil
}

func verify(sys *core.System, spec Spec, blocks []RowBlock) error {
	sys.DrainCaches()
	ref := Reference(spec.N)
	for _, b := range blocks {
		if !b.Active() {
			continue
		}
		l := NewLayout(sys.Map, spec.N, b)
		for lr := 0; lr < b.Rows; lr++ {
			for col := 0; col < spec.N; col++ {
				got := sys.DDR.ReadFloat64(l.CAddr(lr, col))
				want := ref[b.Row0+lr][col]
				if got != want {
					return fmt.Errorf("matmul: C[%d][%d] = %v, want %v", b.Row0+lr, col, got, want)
				}
			}
		}
	}
	return nil
}

type mmKernel struct {
	env     *pe.Env
	spec    Spec
	variant Variant
	blocks  []RowBlock
	lay     Layout
	nodeOf  []int
	sh      *mmShared

	comm  *empi.Comm
	phase uint32
}

func (k *mmKernel) run() {
	rank := k.env.Rank()
	if k.variant != PureSM {
		c, err := empi.New(k.env, k.nodeOf)
		if err != nil {
			// Fail this rank's core instead of panicking: the run aborts
			// with a per-point error instead of killing the process.
			k.env.Fail(fmt.Errorf("matmul: rank %d: %w", rank, err))
		}
		k.comm = c
	}
	k.barrier()
	k.sh.t0[rank] = k.env.Now()
	k.distributeB()
	k.barrier()
	k.sh.tMid[rank] = k.env.Now()
	if k.lay.Block.Active() {
		k.compute()
	}
	k.barrier()
	k.sh.t1[rank] = k.env.Now()
}

// distributeB moves the master B into every rank's private copy: over the
// message path (rank 0 reads once and broadcasts) for HybridFull, or with
// every rank reading shared memory (DII + cached loads) otherwise.
func (k *mmKernel) distributeB() {
	env, n := k.env, k.spec.N
	switch k.variant {
	case HybridFull:
		if k.env.Rank() == 0 {
			for r := 0; r < n; r++ {
				row := make([]float64, n)
				for c := 0; c < n; c++ {
					v := env.LoadDouble(k.lay.SharedBAddr(r, c))
					row[c] = v
					env.StoreDouble(k.lay.BAddr(r, c), v)
				}
				for dst := 1; dst < len(k.blocks); dst++ {
					if k.blocks[dst].Active() {
						k.comm.SendDoubles(dst, row)
					}
				}
			}
			return
		}
		if !k.lay.Block.Active() {
			return
		}
		for r := 0; r < n; r++ {
			row := k.comm.RecvDoubles(0, n)
			for c, v := range row {
				env.StoreDouble(k.lay.BAddr(r, c), v)
			}
		}
	case HybridSync, PureSM:
		if !k.lay.Block.Active() {
			return
		}
		for r := 0; r < n; r++ {
			for c := 0; c < n; c += cache.LineBytes / 8 {
				env.InvalidateLine(k.lay.SharedBAddr(r, c))
			}
			for c := 0; c < n; c++ {
				env.StoreDouble(k.lay.BAddr(r, c), env.LoadDouble(k.lay.SharedBAddr(r, c)))
			}
		}
	}
}

// compute produces the rank's C rows with the classic triple loop; the
// accumulation order matches Reference exactly.
func (k *mmKernel) compute() {
	env, n := k.env, k.spec.N
	for lr := 0; lr < k.lay.Block.Rows; lr++ {
		for j := 0; j < n; j++ {
			sum := 0.0
			for kk := 0; kk < n; kk++ {
				a := env.LoadDouble(k.lay.AAddr(lr, kk))
				b := env.LoadDouble(k.lay.BAddr(kk, j))
				env.ComputeFP(1, 1, 3)
				sum += float64(a * b) // unfused on every GOARCH, as in Reference
			}
			env.StoreDouble(k.lay.CAddr(lr, j), sum)
		}
	}
}

func (k *mmKernel) barrier() {
	if k.variant != PureSM {
		k.comm.Barrier()
		return
	}
	k.env.SharedBarrier(k.lay.BarrierCountAddr(), k.lay.BarrierSenseAddr(), len(k.blocks), &k.phase)
}
