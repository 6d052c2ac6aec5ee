package jacobi

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/empi"
	"repro/internal/pe"
)

// shared carries the per-rank timing measurements out of the programs.
// Programs run as coroutines of the simulation (pe.Proc.Launch), each
// rank writes its own slots, and the driver reads them after the run.
type shared struct {
	t0, t1 []int64
}

// kernel holds everything one rank's program needs.
type kernel struct {
	env     *Envish
	spec    Spec
	variant Variant
	blocks  []Block
	lay     Layout
	nodeOf  []int
	sh      *shared

	comm  *empi.Comm
	phase uint32
	old   int // buffer index read this iteration
	nw    int // buffer index written this iteration
}

// Envish is the subset alias for pe.Env used by the kernels; declared for
// documentation purposes.
type Envish = pe.Env

// Programs builds one program per rank implementing the requested variant.
// nodeOf maps ranks to NoC node ids (from core.System.RankNodes). The
// returned shared struct receives per-rank measurement timestamps.
func Programs(spec Spec, variant Variant, blocks []Block, nodeOf []int, lay func(rank int) Layout) ([]pe.Program, *shared) {
	sh := &shared{t0: make([]int64, len(blocks)), t1: make([]int64, len(blocks))}
	progs := make([]pe.Program, len(blocks))
	for r := range blocks {
		r := r
		progs[r] = func(env *pe.Env) {
			k := &kernel{
				env: env, spec: spec, variant: variant,
				blocks: blocks, lay: lay(r), nodeOf: nodeOf, sh: sh,
				old: 0, nw: 1,
			}
			k.run()
		}
	}
	return progs, sh
}

// MeasuredCycles returns the barrier-to-barrier cycle count of the
// measured iterations, per iteration, as observed by rank 0.
func (sh *shared) MeasuredCycles(measured int) int64 {
	return (sh.t1[0] - sh.t0[0]) / int64(measured)
}

func (k *kernel) run() {
	rank := k.env.Rank()
	if k.variant != PureSM {
		c, err := empi.New(k.env, k.nodeOf)
		if err != nil {
			// Fail this rank's core instead of panicking: the run aborts
			// with a per-point error the sweep drivers propagate, rather
			// than the process dying (see core.System.RunCtx).
			k.env.Fail(fmt.Errorf("jacobi: rank %d: %w", rank, err))
		}
		k.comm = c
	}

	k.barrier() // align all ranks before the first iteration
	for it := 0; it < k.spec.Iterations(); it++ {
		if it == k.spec.Warmup {
			k.sh.t0[rank] = k.env.Now()
		}
		k.iteration()
		k.old, k.nw = k.nw, k.old
	}
	k.sh.t1[rank] = k.env.Now()
}

// iteration computes the owned rows and exchanges boundary rows.
func (k *kernel) iteration() {
	if k.lay.Block.Active() {
		k.compute()
	}
	switch k.variant {
	case HybridFull:
		k.exchangeMP()
		k.barrier()
	case HybridSync, PureSM:
		k.publishSM()
		k.barrier()
		k.consumeSM()
		k.barrier()
	}
}

// compute performs one Jacobi relaxation over the owned rows: four
// neighbour loads, three double adds, one double multiply and one store
// per element, plus loop bookkeeping, all through the simulated memory
// hierarchy.
func (k *kernel) compute() {
	env, l := k.env, k.lay
	for lr := 1; lr <= l.Block.Rows; lr++ {
		for col := 1; col < l.N-1; col++ {
			up := env.LoadDouble(l.Addr(k.old, lr-1, col))
			down := env.LoadDouble(l.Addr(k.old, lr+1, col))
			left := env.LoadDouble(l.Addr(k.old, lr, col-1))
			right := env.LoadDouble(l.Addr(k.old, lr, col+1))
			env.ComputeFP(3, 1, 4)
			env.StoreDouble(l.Addr(k.nw, lr, col), 0.25*(up+down+left+right))
		}
	}
}

// upNeighbor/downNeighbor return the adjacent active rank or -1. With the
// contiguous partition, inactive ranks are always the trailing ones.
func (k *kernel) upNeighbor() int {
	if !k.lay.Block.Active() || k.lay.Block.Rank == 0 {
		return -1
	}
	return k.lay.Block.Rank - 1
}

func (k *kernel) downNeighbor() int {
	r := k.lay.Block.Rank
	if !k.lay.Block.Active() || r+1 >= len(k.blocks) || !k.blocks[r+1].Active() {
		return -1
	}
	return r + 1
}

// loadRow reads one local row of the freshly computed buffer into a Go
// slice (cache hits: the row was just written).
func (k *kernel) loadRow(localRow int) []float64 {
	vals := make([]float64, k.lay.N)
	for col := 0; col < k.lay.N; col++ {
		vals[col] = k.env.LoadDouble(k.lay.Addr(k.nw, localRow, col))
	}
	return vals
}

// storeRow writes received values into a halo row of the new buffer.
func (k *kernel) storeRow(localRow int, vals []float64) {
	for col, v := range vals {
		k.env.StoreDouble(k.lay.Addr(k.nw, localRow, col), v)
	}
}

// exchangeMP swaps halo rows with both neighbours over the message-passing
// path: send both rows first (fire-and-forget), then receive both.
func (k *kernel) exchangeMP() {
	up, down := k.upNeighbor(), k.downNeighbor()
	if up >= 0 {
		k.comm.SendDoubles(up, k.loadRow(1))
	}
	if down >= 0 {
		k.comm.SendDoubles(down, k.loadRow(k.lay.Block.Rows))
	}
	if up >= 0 {
		k.storeRow(0, k.comm.RecvDoubles(up, k.lay.N))
	}
	if down >= 0 {
		k.storeRow(k.lay.Block.Rows+1, k.comm.RecvDoubles(down, k.lay.N))
	}
}

// publishSM writes the rank's boundary rows to its shared-segment slots
// and flushes the lines, making them visible in system memory
// (producer-side software coherency, as in the paper's programming model).
func (k *kernel) publishSM() {
	if !k.lay.Block.Active() {
		return
	}
	r := k.lay.Block.Rank
	k.copyRowToShared(1, func(col int) uint32 { return k.lay.SharedTopSlot(r, col) })
	k.copyRowToShared(k.lay.Block.Rows, func(col int) uint32 { return k.lay.SharedBottomSlot(r, col) })
}

func (k *kernel) copyRowToShared(localRow int, slot func(col int) uint32) {
	env := k.env
	for col := 0; col < k.lay.N; col++ {
		env.StoreDouble(slot(col), env.LoadDouble(k.lay.Addr(k.nw, localRow, col)))
	}
	for col := 0; col < k.lay.N; col += cache.LineBytes / 8 {
		env.FlushLine(slot(col))
	}
}

// consumeSM reads the neighbours' boundary rows from shared memory
// (invalidate-then-load, the DII pattern) into the halo rows.
func (k *kernel) consumeSM() {
	up, down := k.upNeighbor(), k.downNeighbor()
	if up >= 0 {
		k.copyRowFromShared(0, func(col int) uint32 { return k.lay.SharedBottomSlot(up, col) })
	}
	if down >= 0 {
		k.copyRowFromShared(k.lay.Block.Rows+1, func(col int) uint32 { return k.lay.SharedTopSlot(down, col) })
	}
}

func (k *kernel) copyRowFromShared(localRow int, slot func(col int) uint32) {
	env := k.env
	for col := 0; col < k.lay.N; col += cache.LineBytes / 8 {
		env.InvalidateLine(slot(col))
	}
	for col := 0; col < k.lay.N; col++ {
		env.StoreDouble(k.lay.Addr(k.nw, localRow, col), env.LoadDouble(slot(col)))
	}
}

// barrier dispatches to the variant's synchronization primitive.
func (k *kernel) barrier() {
	if k.variant == PureSM {
		k.smBarrier()
		return
	}
	k.comm.Barrier()
}

// smBarrier is the sense-reversing centralized barrier in shared memory:
// a lock-protected counter at the MPMMU plus a spin on the sense word.
// Following the paper's programming model, shared data is cacheable with
// software coherency: the counter read-modify-write invalidates (DII),
// loads, stores and flushes the counter line inside the lock, and each
// sense poll is a DII followed by a cached load — i.e. a full block-read
// transaction. Every arrival and every poll therefore serializes at the
// MPMMU, which is exactly the synchronization overhead the paper measures
// the hybrid approach against.
func (k *kernel) smBarrier() {
	env := k.env
	count := k.lay.BarrierCountAddr()
	sense := k.lay.BarrierSenseAddr()
	k.phase ^= 1
	env.Lock(count)
	env.InvalidateLine(count)
	c := env.LoadWord(count)
	if int(c+1) == len(k.blocks) {
		env.StoreWord(count, 0)
		env.FlushLine(count)
		env.InvalidateLine(sense)
		env.StoreWord(sense, k.phase)
		env.FlushLine(sense)
	} else {
		env.StoreWord(count, c+1)
		env.FlushLine(count)
	}
	env.Unlock(count)
	for {
		env.InvalidateLine(sense)
		if env.LoadWord(sense) == k.phase {
			return
		}
	}
}
