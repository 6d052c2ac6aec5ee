// Package pe models a MEDEA processing element: a simple in-order RISC-type
// core (the paper's Tensilica Xtensa-LX) with an L1 data cache, a pif2NoC
// bridge for shared-memory transactions, and a TIE message-passing port.
//
// Instead of an ISA interpreter, the core executes an abstract operation
// stream — compute bursts, loads/stores, cache control, lock/unlock, send/
// receive — with the latencies of the paper's cost model. Application code
// is ordinary Go running in one goroutine per core against the Env API;
// a strictly synchronous rendezvous keeps the simulation deterministic.
package pe

import (
	"errors"
	"fmt"
	"runtime/debug"

	"repro/internal/bridge"
	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tie"
)

type opKind int

const (
	opCompute opKind = iota
	opLoad
	opStore
	opLoadU
	opStoreU
	opFlush
	opInval
	opLock
	opUnlock
	opSend
	opRecv
	opRecvAny
	opHalt
)

type op struct {
	kind   opKind
	cycles int64
	addr   uint32
	size   int // 4 or 8 bytes
	value  uint64
	dst    int
	src    int
	class  tie.Class
	words  []uint32
}

type result struct {
	value uint64
	pkt   tie.Packet
	// aborted poisons the result: the program goroutine unwinds via
	// errProgramAborted instead of consuming it (see Proc.Abort).
	aborted bool
}

// errProgramAborted is the sentinel the Env API panics with when the core
// aborts its program (run canceled, budget exhausted, or a sibling core
// failed). Launch's recovery wrapper swallows it — an abort is a clean
// unwind, not a program failure.
var errProgramAborted = errors.New("pe: program aborted")

type procState int

const (
	stNeedOp procState = iota
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

	opCh  chan op
	resCh chan result

	st        procState
	busyUntil int64
	pending   op
	stash     result
	seq       memSeq
	lastCycle int64
	finish    int64

	// progErr records why the program goroutine terminated abnormally: an
	// error passed to Env.Fail, or a recovered panic with its stack. It is
	// written by the program goroutine strictly before the final opHalt
	// rendezvous, so the simulation driver may read it once the core has
	// halted (Halted() true) without further synchronization.
	progErr error

	Stats Stats
}

// NewProc wires a processing element from its parts.
func NewProc(id, rank int, c *cache.Cache, b *bridge.Bridge, p *tie.Port, cost CostModel) *Proc {
	return &Proc{
		ID: id, Rank: rank,
		Cache: c, Bridge: b, Port: p, Cost: cost,
		opCh:  make(chan op),
		resCh: make(chan result),
		st:    stHalted, // until a program is launched
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

// Launch starts the program goroutine. The core begins fetching operations
// on the next cycle. Call once per run.
//
// The goroutine is panic-isolated: a panic in program code is recovered,
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
	go func() {
		defer func() {
			if r := recover(); r != nil && !isAbort(r) {
				p.progErr = fmt.Errorf("pe: program on core %d (rank %d) panicked: %v\n%s",
					p.ID, p.Rank, r, debug.Stack())
			}
			// Always complete the halt rendezvous, even after a panic or
			// abort: the engine side (fetchOp or Abort) is blocked on it.
			p.opCh <- op{kind: opHalt}
		}()
		env := &Env{p: p}
		prog(env)
	}()
}

// isAbort reports whether a recovered value is the clean-abort sentinel
// (raised by Env.issue on a poisoned result or by Env.Fail).
func isAbort(r any) bool {
	err, ok := r.(error)
	return ok && errors.Is(err, errProgramAborted)
}

// Halted reports whether the program has finished.
func (p *Proc) Halted() bool { return p.st == stHalted }

// ProgramErr returns the error the program terminated with: an Env.Fail
// error, a recovered panic, or nil for a clean finish. Only meaningful —
// and only safe to read — once Halted() reports true.
func (p *Proc) ProgramErr() error { return p.progErr }

// Abort terminates a launched program that has not halted: it poisons the
// rendezvous protocol so the program goroutine unwinds (every blocked or
// future Env call panics with the abort sentinel, which Launch's wrapper
// recovers) and returns once the goroutine has reached its halt handshake.
// Call it from the simulation driver after abandoning a run (cancellation,
// cycle-budget exhaustion, a failed sibling core) so canceled jobs do not
// leak program goroutines. The core is left halted; the Proc must not be
// stepped again afterwards.
func (p *Proc) Abort() {
	if p.st == stHalted {
		return
	}
	// Unless the core is still waiting for the program's first operation,
	// an operation is pending and the program goroutine is blocked on its
	// result; poison it to start the unwind.
	if p.st != stNeedOp {
		p.resCh <- result{aborted: true}
	}
	// Drain the protocol until the goroutine's deferred halt arrives. A
	// program that ignores the first poisoned result (e.g. application
	// code recovered our sentinel) keeps issuing ops; keep poisoning.
	for {
		o := <-p.opCh
		if o.kind == opHalt {
			p.st = stHalted
			return
		}
		p.resCh <- result{aborted: true}
	}
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
	// that it has nothing to do until busyUntil or the reply, and the
	// question is a handful of compares beside a goroutine handoff.
	p.wake.Idle()
}

// advance runs one cycle of the core's state machine.
func (p *Proc) advance(now int64) {
	switch p.st {
	case stNeedOp:
		p.fetchOp(now)
	case stBusy:
		if now >= p.busyUntil {
			p.complete(now)
		} else {
			p.Stats.StallCycles.Inc()
		}
	case stBridge:
		res, ok := p.Bridge.Done()
		if !ok {
			p.Stats.StallCycles.Inc()
			return
		}
		p.seq.results = append(p.seq.results, res.Data)
		p.advanceSeq(now)
	case stSending:
		if p.Port.SendBusy() {
			p.Stats.StallCycles.Inc()
			return
		}
		p.complete(now)
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

// fetchOp performs the synchronous rendezvous with the program goroutine
// and starts the next operation. The receive blocks at most for the time
// the program needs to compute its next operation, which preserves
// determinism: the simulator owns the only scheduling decision.
func (p *Proc) fetchOp(now int64) {
	o := <-p.opCh
	p.Stats.Ops.Inc()
	p.pending = o
	switch o.kind {
	case opHalt:
		p.st = stHalted
		p.finish = now
	case opCompute:
		n := o.cycles
		if n < 1 {
			n = 1
		}
		p.Stats.ComputeCycles.Add(n)
		p.becomeBusy(now, n)
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
		p.startSeq(p.lockSeq(o), now)
	case opLoad, opStore:
		p.Stats.MemOps.Inc()
		p.startCached(o, now)
	case opLoadU, opStoreU, opFlush, opInval:
		p.Stats.MemOps.Inc()
		p.startSeq(p.memSeqFor(o), now)
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

// complete hands the stashed result to the program and immediately fetches
// the next operation, so back-to-back operations lose no cycles.
func (p *Proc) complete(now int64) {
	p.lastCycle = now
	res := p.stash
	p.stash = result{}
	p.resCh <- res
	p.st = stNeedOp
	p.fetchOp(now)
}

// startSeq begins a memory micro-sequence: zero or more bridge
// transactions followed by a finishing action.
func (p *Proc) startSeq(s memSeq, now int64) {
	p.seq = s
	p.seq.results = p.seq.results[:0]
	p.advanceSeq(now)
}

func (p *Proc) advanceSeq(now int64) {
	if len(p.seq.txns) > 0 {
		t := p.seq.txns[0]
		p.seq.txns = p.seq.txns[1:]
		p.Bridge.Start(t, now)
		p.st = stBridge
		return
	}
	extra := int64(1)
	if p.seq.finish != nil {
		p.stash, extra = p.seq.finish(p.seq.results)
	}
	p.becomeBusy(now, extra)
}
