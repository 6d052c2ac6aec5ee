package noc

import (
	"repro/internal/flit"
	"repro/internal/sim"
)

// LocalPort is the interface between a switch and the node attached to it
// (a processing element's network interface, an MPMMU, or a traffic
// generator).
//
// TryPull is called by the switch at most once per cycle when it has a free
// output slot; the node hands over its next flit to inject, if any.
// Deliver is called by the switch at most once per cycle to eject a flit
// addressed to this node.
//
// Nodes run in sim.PhaseNode and switches in sim.PhaseSwitch, so a flit
// enqueued by a node is injectable in the same cycle, giving the paper's
// peak throughput of one flit per cycle.
type LocalPort interface {
	TryPull() (flit.Flit, bool)
	Deliver(f flit.Flit, now int64)
}

// InjectWaker is the optional LocalPort capability that lets the port's
// switch (or, on concentrated topologies, its local crossbar) sleep:
// Attach hands the port the handle of whoever calls its TryPull, and the
// port promises to Wake it whenever a flit becomes available to pull. A
// port without it keeps its switch stepping every cycle, which is always
// correct.
type InjectWaker interface {
	WakeOnInject(h *sim.Handle)
}

// bindInject hands p its puller's handle and reports whether p will wake
// it, i.e. whether the puller may sleep while p is idle.
func bindInject(p LocalPort, h *sim.Handle) bool {
	iw, ok := p.(InjectWaker)
	if ok {
		iw.WakeOnInject(h)
	}
	return ok
}

// portWakes is the wake wiring every traffic endpoint in this package
// embeds: its own scheduling handle (sim.Sleeper's Bind) and the handle of
// the switch or crossbar that drains its source queue (InjectWaker), which
// it wakes on every push.
type portWakes struct{ wake, puller *sim.Handle }

// Bind implements sim.Sleeper.
func (w *portWakes) Bind(h *sim.Handle) { w.wake = h }

// WakeOnInject implements InjectWaker.
func (w *portWakes) WakeOnInject(h *sim.Handle) { w.puller = h }

// nullPort is attached to switches with no node; it never injects and
// counts (in tests, via the network stats) any stray delivery.
type nullPort struct{ delivered int64 }

func (n *nullPort) TryPull() (flit.Flit, bool) { return flit.Flit{}, false }
func (n *nullPort) Deliver(flit.Flit, int64)   { n.delivered++ }
func (n *nullPort) Pending() int               { return 0 }
func (n *nullPort) WakeOnInject(*sim.Handle)   {} // never injects
