package pe

import (
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/tie"
)

// Env is the API application programs use to run on a core. Every method
// is blocking, mirroring the in-order core: it returns when the operation
// has completed in simulated time.
//
// Loads and stores move real bytes through the simulated memory hierarchy,
// so programs compute real results while accumulating accurate timing.
type Env struct {
	p     *Proc
	yield func(op) bool // hands an operation to the core; false once aborted
}

// maxAhead bounds how many cycles a program may retire locally before it
// hands back to the core, so that one which never issues anything else
// still lets the run loop reach its cycle budget and its context. Results
// do not depend on it: at 1 every operation hands back at once, which is
// the interleaving the differential tests compare the default against
// (they are the only writers; see export_test.go).
var maxAhead int64 = 1 << 12

// issue hands an operation to the core and returns its result once the
// core resumes the program. After Proc.Abort the switch fails instead,
// and the program unwinds through the recovery wrapper Launch installed.
func (e *Env) issue(o op) result {
	if !e.yield(o) {
		panic(errProgramAborted)
	}
	return e.p.stash
}

// retire completes, on the program's side, an operation that nothing
// outside the core can observe: it only moves the core's clock, which the
// core catches up on before it starts the next issued operation
// (Proc.fetchOp).
func (e *Env) retire(cycles int64) {
	p := e.p
	p.Stats.Ops.Inc()
	p.ahead += max(cycles, 1)
	p.aheadOps++
	if p.ahead >= maxAhead {
		e.issue(op{kind: opSync})
	}
}

// Fail terminates the calling program with err: the error is recorded on
// the core (readable through Proc.ProgramErr once halted) and the program
// unwinds immediately. It is the structured alternative to
// panicking inside kernel code for conditions detected at run time — a
// failed program halts its own core and fails its own simulation instead
// of crashing the process. Fail never returns.
func (e *Env) Fail(err error) {
	if err == nil {
		err = errProgramAborted
	}
	e.p.progErr = err
	panic(fmt.Errorf("%w: %v", errProgramAborted, err))
}

// NodeID returns the core's NoC node id.
func (e *Env) NodeID() int { return e.p.ID }

// Rank returns the core's dense application rank.
func (e *Env) Rank() int { return e.p.Rank }

// Now returns the simulation cycle at which the previous operation
// completed.
func (e *Env) Now() int64 { return e.p.lastCycle + e.p.ahead }

// Cost returns the core's cost model, for programs that charge explicit
// compute time.
func (e *Env) Cost() CostModel { return e.p.Cost }

// Compute occupies the core for the given number of cycles (minimum 1).
func (e *Env) Compute(cycles int64) {
	cycles = max(cycles, 1)
	e.p.Stats.ComputeCycles.Add(cycles)
	e.retire(cycles)
}

// ComputeFP occupies the core for the time of the given number of
// double-precision adds and multiplies plus simple integer operations.
func (e *Env) ComputeFP(adds, muls, intOps int) {
	c := e.p.Cost
	e.Compute(int64(adds)*c.FPAdd + int64(muls)*c.FPMul + int64(intOps)*c.IntOp)
}

// load is a cached load. The L1 belongs to the core alone (coherency is
// the program's own flush and invalidate, paper §II-E), so a hit retires
// locally; a miss needs the bridge and is issued.
func (e *Env) load(addr uint32, size int) uint64 {
	p := e.p
	checkAlign(addr, size)
	if !p.Cache.Lookup(addr) {
		return e.issue(op{kind: opLoad, addr: addr, size: size}).value
	}
	v := p.Cache.ReadUint(addr, size)
	p.Stats.MemOps.Inc()
	e.retire(p.Cost.CacheHit)
	return v
}

// store is a cached store. A hit updates the line here; under write-back
// that is all of it, under write-through the store is issued as well so
// that the core sends it on to system memory. A miss is issued.
func (e *Env) store(addr uint32, size int, v uint64) {
	p := e.p
	checkAlign(addr, size)
	if p.Cache.Lookup(addr) {
		p.Cache.WriteUint(addr, size, v)
		if p.Cache.Policy() == cache.WriteBack {
			p.Stats.MemOps.Inc()
			e.retire(p.Cost.CacheHit)
			return
		}
	}
	e.issue(op{kind: opStore, addr: addr, size: size, value: v})
}

// LoadWord loads a 32-bit word through the L1 cache.
func (e *Env) LoadWord(addr uint32) uint32 { return uint32(e.load(addr, 4)) }

// StoreWord stores a 32-bit word through the L1 cache.
func (e *Env) StoreWord(addr uint32, v uint32) { e.store(addr, 4, uint64(v)) }

// LoadDouble loads an 8-byte IEEE-754 double through the L1 cache.
// addr must be 8-aligned.
func (e *Env) LoadDouble(addr uint32) float64 { return math.Float64frombits(e.load(addr, 8)) }

// StoreDouble stores an 8-byte IEEE-754 double through the L1 cache.
func (e *Env) StoreDouble(addr uint32, v float64) { e.store(addr, 8, math.Float64bits(v)) }

// LoadWordUncached bypasses the cache with a single-read transaction, the
// access mode the paper recommends for frequently-updated shared data.
func (e *Env) LoadWordUncached(addr uint32) uint32 {
	return uint32(e.issue(op{kind: opLoadU, addr: addr, size: 4}).value)
}

// StoreWordUncached bypasses the cache with a single-write transaction.
func (e *Env) StoreWordUncached(addr uint32, v uint32) {
	e.issue(op{kind: opStoreU, addr: addr, size: 4, value: uint64(v)})
}

// FlushLine writes the cache line containing addr back to system memory if
// it is dirty (producer-side software coherency).
func (e *Env) FlushLine(addr uint32) {
	e.issue(op{kind: opFlush, addr: addr})
}

// InvalidateLine drops the cache line containing addr (the DII
// instruction; consumer-side software coherency).
func (e *Env) InvalidateLine(addr uint32) {
	e.p.Cache.InvalidateLine(addr)
	e.p.Stats.MemOps.Inc()
	e.retire(1)
}

// Lock acquires the MPMMU lock on the shared-memory word at addr,
// blocking until granted.
func (e *Env) Lock(addr uint32) {
	e.issue(op{kind: opLock, addr: addr})
}

// Unlock releases the MPMMU lock on the shared-memory word at addr.
func (e *Env) Unlock(addr uint32) {
	e.issue(op{kind: opUnlock, addr: addr})
}

// Send transmits one logical packet (1..16 words) to the node dst over the
// TIE message-passing port. It returns when the last flit has entered the
// injection path (fire-and-forget, as in hardware).
func (e *Env) Send(dst int, class tie.Class, words []uint32) {
	w := make([]uint32, len(words))
	copy(w, words)
	e.issue(op{kind: opSend, dst: dst, class: class, words: w})
}

// Recv blocks until a logical packet of the given class from node src has
// been assembled and returns it. The payload is padded to the burst
// length; callers trim to their protocol's length.
func (e *Env) Recv(src int, class tie.Class) tie.Packet {
	return e.issue(op{kind: opRecv, src: src, class: class}).pkt
}

// RecvAny blocks until a logical packet of the given class from any node
// is available (lowest node id first for determinism).
func (e *Env) RecvAny(class tie.Class) tie.Packet {
	return e.issue(op{kind: opRecvAny, class: class}).pkt
}
