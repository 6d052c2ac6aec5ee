package bridge

import (
	"fmt"

	"repro/internal/flit"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/stats"
)

// ArbiterMode selects one of the three NoC-access configurations the paper
// describes for sharing a node's injection port between the shared-memory
// bridge and the TIE message-passing interface.
type ArbiterMode int

const (
	// ArbMux: a plain multiplexer with no buffering; under contention one
	// interface waits for the other to release the port.
	ArbMux ArbiterMode = iota
	// ArbSingleFIFO: one shared FIFO decouples the interfaces from switch
	// congestion.
	ArbSingleFIFO
	// ArbDualFIFO: a high-priority FIFO for message-passing traffic and a
	// best-effort FIFO for shared-memory traffic; best-effort drains only
	// when the high-priority queue is empty.
	ArbDualFIFO
)

// String implements fmt.Stringer.
func (m ArbiterMode) String() string {
	switch m {
	case ArbMux:
		return "mux"
	case ArbSingleFIFO:
		return "single-fifo"
	case ArbDualFIFO:
		return "dual-fifo"
	}
	return fmt.Sprintf("arbiter(%d)", int(m))
}

// ArbiterStats counts arbitration events.
type ArbiterStats struct {
	FromTIE    stats.Counter
	FromBridge stats.Counter
	HPOccupied stats.Counter // cycles the BE queue waited behind HP traffic
}

// Arbiter merges the TIE port's and the bridge's output FIFOs into the
// single flit stream the switch pulls from. In the FIFO modes it is a
// clocked component (register it in sim.PhaseNode after the node so that
// flits produced this cycle can be staged this cycle).
type Arbiter struct {
	mode ArbiterMode
	tie  *queue.FIFO[flit.Flit] // high-priority source
	brg  *queue.FIFO[flit.Flit] // best-effort source

	single *queue.FIFO[flit.Flit]
	hp, be *queue.FIFO[flit.Flit]

	rrTIEFirst bool
	name       string

	// wake is the arbiter's own scheduling handle; puller is the switch
	// that calls TryPull, woken while any flit is queued here.
	wake, puller *sim.Handle

	Stats ArbiterStats
}

// NewArbiter creates an arbiter in the given mode. fifoCap sizes the
// staging FIFO(s) for the FIFO modes.
func NewArbiter(name string, mode ArbiterMode, tieOut, brgOut *queue.FIFO[flit.Flit], fifoCap int) *Arbiter {
	a := &Arbiter{mode: mode, tie: tieOut, brg: brgOut, rrTIEFirst: true, name: name}
	switch mode {
	case ArbSingleFIFO:
		a.single = queue.NewFIFO[flit.Flit](fifoCap)
	case ArbDualFIFO:
		a.hp = queue.NewFIFO[flit.Flit](fifoCap)
		a.be = queue.NewFIFO[flit.Flit](fifoCap)
	}
	return a
}

// Name implements sim.Component.
func (a *Arbiter) Name() string { return a.name }

// Bind implements sim.Sleeper. The arbiter's inputs are the two source
// FIFOs, fed only from the owning core's Step, which calls Wake.
func (a *Arbiter) Bind(h *sim.Handle) { a.wake = h }

// Wake makes the arbiter step again; the core calls it whenever it may
// have pushed a flit into a source FIFO. Safe on a nil arbiter.
func (a *Arbiter) Wake() {
	if a != nil {
		a.wake.Wake()
	}
}

// WakeOnInject records the handle of the switch that pulls from this
// arbiter (the node interface forwards it from noc.Network.Attach).
func (a *Arbiter) WakeOnInject(h *sim.Handle) { a.puller = h }

// Step stages flits from the source queues into the arbiter FIFOs (FIFO
// modes only). One flit per source per cycle may be staged, modelling the
// single write port of each queue.
func (a *Arbiter) Step(now int64) {
	switch a.mode {
	case ArbMux:
		// Nothing to do: TryPull reads the sources directly.
	case ArbSingleFIFO:
		// Round-robin the single staging port between the two sources.
		first, second := a.brg, a.tie
		if a.rrTIEFirst {
			first, second = a.tie, a.brg
		}
		if !a.stageInto(a.single, first) {
			a.stageInto(a.single, second)
		}
		a.rrTIEFirst = !a.rrTIEFirst
	case ArbDualFIFO:
		a.stageInto(a.hp, a.tie)
		a.stageInto(a.be, a.brg)
	}
	if a.Pending() > 0 {
		a.puller.Wake() // the switch has something to pull this cycle
	} else {
		a.wake.Idle()
	}
}

func (a *Arbiter) stageInto(dst, src *queue.FIFO[flit.Flit]) bool {
	if dst.Full() {
		return false
	}
	f, ok := src.Pop()
	if !ok {
		return false
	}
	dst.Push(f)
	return true
}

// TryPull hands the switch the next flit to inject.
func (a *Arbiter) TryPull() (flit.Flit, bool) {
	switch a.mode {
	case ArbMux:
		first, second := a.brg, a.tie
		firstIsTIE := a.rrTIEFirst
		if a.rrTIEFirst {
			first, second = a.tie, a.brg
		}
		if f, ok := first.Pop(); ok {
			a.rrTIEFirst = !a.rrTIEFirst
			a.note(firstIsTIE)
			return f, true
		}
		if f, ok := second.Pop(); ok {
			a.rrTIEFirst = !a.rrTIEFirst
			a.note(!firstIsTIE)
			return f, true
		}
		return flit.Flit{}, false
	case ArbSingleFIFO:
		f, ok := a.single.Pop()
		if ok {
			a.note(f.Type == flit.Message)
		}
		return f, ok
	case ArbDualFIFO:
		if f, ok := a.hp.Pop(); ok {
			a.note(true)
			return f, true
		}
		if a.hp.Len() == 0 {
			if f, ok := a.be.Pop(); ok {
				a.note(false)
				return f, true
			}
		}
		return flit.Flit{}, false
	}
	return flit.Flit{}, false
}

func (a *Arbiter) note(fromTIE bool) {
	if fromTIE {
		a.Stats.FromTIE.Inc()
	} else {
		a.Stats.FromBridge.Inc()
	}
}
