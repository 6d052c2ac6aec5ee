// Package pe models a MEDEA processing element: a simple in-order RISC-type
// core (the paper's Tensilica Xtensa-LX) with an L1 data cache, a pif2NoC
// bridge for shared-memory transactions, and a TIE message-passing port.
//
// Instead of an ISA interpreter, the core executes an abstract operation
// stream — compute bursts, loads/stores, cache control, lock/unlock, send/
// receive — with the latencies of the paper's cost model. Application code
// is ordinary Go written against the Env API. Each core runs its program
// as a coroutine (iter.Pull): the core switches to it to fetch the next
// operation and the program switches back by issuing one, so core and
// program strictly alternate on one thread of control and the simulator
// owns the only scheduling decision.
//
// Operations that touch nothing outside the core — compute bursts, L1
// hits under write-back, invalidates — retire on the program's side of
// that switch and only add to the core's run-ahead account (Proc.ahead);
// the next operation that something outside the core can observe is
// started that many cycles later. DESIGN.md, "PE handoff", has the table.
package pe

import (
	"errors"
	"fmt"
	"iter"
	"runtime/debug"

	"repro/internal/bridge"
	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tie"
)

type opKind int

const (
	opLoad opKind = iota
	opStore
	opLoadU
	opStoreU
	opFlush
	opLock
	opUnlock
	opSend
	opRecv
	opRecvAny
	// opSync carries no work: a program that has run maxAhead cycles
	// ahead hands back so the core can catch up (Env.retire).
	opSync
	// opHalt is never issued: fetchOp makes it up when the program returns.
	opHalt
)

type op struct {
	kind  opKind
	addr  uint32
	size  int // 4 or 8 bytes
	value uint64
	dst   int
	src   int
	class tie.Class
	words []uint32
}

type result struct {
	value uint64
	pkt   tie.Packet
}

// errProgramAborted is the sentinel the Env API panics with when the core
// aborts its program (run canceled, budget exhausted, or a sibling core
// failed). Launch's recovery wrapper swallows it — an abort is a clean
// unwind, not a program failure.
var errProgramAborted = errors.New("pe: program aborted")

type procState int

const (
	stNeedOp procState = iota
	// stAhead: the program retired local operations before issuing
	// pending; the core is busy with them until busyUntil and starts
	// pending then.
	stAhead
	stBusy
	stBridge
	stSending
	stReceiving
	stHalted
)

// Stats counts per-core events.
type Stats struct {
	Ops           stats.Counter
	ComputeCycles stats.Counter
	MemOps        stats.Counter
	UncachedOps   stats.Counter
	Sends         stats.Counter
	Recvs         stats.Counter
	Locks         stats.Counter
	StallCycles   stats.Counter // cycles spent waiting on memory/NoC
}

// Proc is one processing element. It implements sim.Component; register it
// in sim.PhaseNode.
type Proc struct {
	ID   int // node id on the NoC
	Rank int // dense application rank (0..P-1)

	Cache  *cache.Cache
	Bridge *bridge.Bridge
	Port   *tie.Port
	Cost   CostModel
	// Arbiter drains the TIE port's and the bridge's output FIFOs toward
	// the switch; the core wakes it whenever its Step may have fed them.
	// Nil (a core stepped by hand in a test) is fine.
	Arbiter *bridge.Arbiter

	wake *sim.Handle

	// The program coroutine: next resumes it until it issues its next
	// operation (ok false: it returned), stop unwinds it. The program's
	// side of the switch is Env.yield.
	next func() (op, bool)
	stop func()

	st        procState
	busyUntil int64
	pending   op
	stash     result // the pending operation's result, read by Env.issue
	seq       memSeq
	lastCycle int64 // cycle of the latest fetch: the program's time base
	finish    int64

	// ahead is the latency of the operations the program has retired
	// locally since the latest fetch, aheadOps their number.
	ahead, aheadOps int64

	// Scratch for the one memory operation in flight (the core is blocking
	// and in-order): the line a block write carries, the words of a
	// single-write pair.
	lineWords  [cache.LineBytes / 4]uint32
	storeWords [2]uint32

	// progErr records why the program terminated abnormally: an error
	// passed to Env.Fail, or a recovered panic with its stack. It is
	// written on the program's side of the switch and read by the
	// simulation driver once the core has halted.
	progErr error

	Stats Stats
}

// NewProc wires a processing element from its parts.
func NewProc(id, rank int, c *cache.Cache, b *bridge.Bridge, p *tie.Port, cost CostModel) *Proc {
	return &Proc{
		ID: id, Rank: rank,
		Cache: c, Bridge: b, Port: p, Cost: cost,
		st: stHalted, // until a program is launched
	}
}

// Name implements sim.Component.
func (p *Proc) Name() string { return fmt.Sprintf("pe%d", p.ID) }

// Bind implements sim.Sleeper. The core's inputs are its own clock
// (busyUntil), the program (Launch wakes it) and the flits its node
// interface delivers to the bridge and the TIE port (Wake).
func (p *Proc) Bind(h *sim.Handle) { p.wake = h }

// Wake makes the core step again: whoever delivers a flit to its bridge
// or its TIE port calls it.
func (p *Proc) Wake() { p.wake.Wake() }

// Program is the application code run by a core.
type Program func(env *Env)

// Launch starts the program as a coroutine of the core. The core begins
// fetching operations on the next cycle; the program first runs when it
// does. Call once per run.
//
// The program is panic-isolated: a panic in program code is recovered,
// recorded (readable through ProgramErr once the core halts) and converted
// into a normal halt, so one faulty kernel fails its own run instead of
// taking down the whole process — essential when many simulations share a
// long-running server.
func (p *Proc) Launch(prog Program) {
	if p.st != stHalted {
		panic("pe: program already running")
	}
	p.progErr = nil
	p.st = stNeedOp
	p.wake.Wake()
	p.next, p.stop = iter.Pull(func(yield func(op) bool) {
		defer func() {
			if r := recover(); r != nil && !isAbort(r) {
				p.progErr = fmt.Errorf("pe: program on core %d (rank %d) panicked: %v\n%s",
					p.ID, p.Rank, r, debug.Stack())
			}
		}()
		prog(&Env{p: p, yield: yield})
	})
}

// isAbort reports whether a recovered value is the clean-abort sentinel
// (raised by Env.issue after Abort, or by Env.Fail).
func isAbort(r any) bool {
	err, ok := r.(error)
	return ok && errors.Is(err, errProgramAborted)
}

// Halted reports whether the program has finished.
func (p *Proc) Halted() bool { return p.st == stHalted }

// ProgramErr returns the error the program terminated with: an Env.Fail
// error, a recovered panic, or nil for a clean finish. Only meaningful
// once Halted() reports true.
func (p *Proc) ProgramErr() error { return p.progErr }

// Abort terminates a launched program that has not halted: it stops the
// coroutine, so the Env call the program is suspended in — and any it
// makes while unwinding — panics with the abort sentinel, which Launch's
// wrapper recovers. Call it from the simulation driver after abandoning a
// run (cancellation, cycle-budget exhaustion, a failed sibling core) so
// abandoned runs leave no coroutine behind. The core is left halted; the
// Proc must not be stepped again afterwards.
func (p *Proc) Abort() {
	if p.st == stHalted {
		return
	}
	p.stop()
	p.st = stHalted
}

// FinishCycle returns the cycle at which the program halted.
func (p *Proc) FinishCycle() int64 { return p.finish }

// Step implements sim.Component.
func (p *Proc) Step(now int64) {
	// Feed the transmit paths first so a flit can leave this cycle.
	if p.Port.SendBusy() || p.Bridge.Sending() {
		p.Port.StepSend(now)
		p.Bridge.Step(now)
		p.Arbiter.Wake()
	}
	p.advance(now)
	// Ask after every Step, not only from the stall branches: a core that
	// just started a compute burst or a bridge transaction knows already
	// that it has nothing to do until busyUntil or the reply.
	p.wake.Idle()
}

// advance runs one cycle of the core's state machine.
func (p *Proc) advance(now int64) {
	switch p.st {
	case stNeedOp: // launched, not yet fetched from
		p.fetchOp(now)
	case stAhead:
		if now >= p.busyUntil {
			p.start(now)
		}
	case stBusy:
		if now >= p.busyUntil {
			p.fetchOp(now)
		} else {
			p.Stats.StallCycles.Inc()
		}
	case stBridge:
		res, ok := p.Bridge.Done()
		if !ok {
			p.Stats.StallCycles.Inc()
			return
		}
		copy(p.seq.data[p.seq.next-1][:], res.Data)
		p.advanceSeq(now)
	case stSending:
		if p.Port.SendBusy() {
			p.Stats.StallCycles.Inc()
			return
		}
		p.fetchOp(now)
	case stReceiving:
		var pkt tie.Packet
		var ok bool
		if p.pending.kind == opRecvAny {
			pkt, ok = p.Port.TryRecvAny(p.pending.class)
		} else {
			pkt, ok = p.Port.TryRecv(p.pending.src, p.pending.class)
		}
		if !ok {
			p.Stats.StallCycles.Inc()
			return
		}
		p.stash = result{pkt: pkt}
		p.becomeBusy(now, 1+int64(len(pkt.Words))*p.Cost.RecvPerWord)
	}
}

// fetchOp switches to the program — which finds the result of the
// operation that just completed in stash — until it issues its next one,
// in the same cycle, so back-to-back operations lose no cycles.
//
// What the program retired locally on the way (Env.retire) occupies the
// core first: a chain of k such operations totalling n cycles would have
// been fetched one by one and stalled n-k cycles in between, so that is
// what the run-ahead state is charged, once, and the issued operation
// starts at now+n — the cycle it would have been fetched on.
func (p *Proc) fetchOp(now int64) {
	p.lastCycle = now
	p.ahead, p.aheadOps = 0, 0
	o, ok := p.next()
	if !ok {
		o = op{kind: opHalt}
	}
	p.pending = o
	if p.ahead == 0 {
		p.start(now)
		return
	}
	p.Stats.StallCycles.Add(p.ahead - p.aheadOps)
	p.busyUntil = now + p.ahead
	p.st = stAhead
}

// start begins the pending operation.
func (p *Proc) start(now int64) {
	o := &p.pending
	if o.kind == opSync {
		p.fetchOp(now)
		return
	}
	p.Stats.Ops.Inc()
	switch o.kind {
	case opHalt:
		p.st = stHalted
		p.finish = now
	case opSend:
		p.Stats.Sends.Inc()
		if err := p.Port.StartSend(o.dst, o.class, o.words, now); err != nil {
			panic(err)
		}
		p.st = stSending
	case opRecv, opRecvAny:
		p.Stats.Recvs.Inc()
		p.st = stReceiving
	case opLock, opUnlock:
		p.Stats.Locks.Inc()
		p.planSeq()
		p.advanceSeq(now)
	case opLoad, opStore, opLoadU, opStoreU, opFlush:
		p.Stats.MemOps.Inc()
		p.planSeq()
		p.advanceSeq(now)
	default:
		panic("pe: unknown op")
	}
}

func (p *Proc) becomeBusy(now, cycles int64) {
	if cycles < 1 {
		cycles = 1
	}
	p.busyUntil = now + cycles
	p.st = stBusy
}

// advanceSeq starts the next bridge transaction of the memory
// micro-sequence in seq, or finishes the operation when none is left.
func (p *Proc) advanceSeq(now int64) {
	if p.seq.next < p.seq.n {
		p.Bridge.Start(p.seq.txns[p.seq.next], now)
		p.seq.next++
		p.st = stBridge
		return
	}
	p.becomeBusy(now, p.finishSeq())
}
