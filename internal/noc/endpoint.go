package noc

import (
	"repro/internal/flit"
	"repro/internal/queue"
	"repro/internal/sim"
)

// LocalPort is the interface between a switch and the node attached to it
// (a processing element's network interface, an MPMMU, or a traffic
// generator). A flit crosses it in place: the switch reads the node's next
// flit where the node keeps it and copies it once, into an output register
// or its own buffer.
//
// Front returns the flit the node offers for injection this cycle, or nil
// when it has none. It has no side effects, so calling it twice returns
// the same pointer and moves nothing. The pointer is good until Drop or
// any other call into the port, Deliver included: a switch is done with
// it (copied or dropped) before it delivers to the same port.
// Drop consumes the flit Front returned, which must exist, with whatever
// the handoff does at the node: an arbiter's round-robin turn and source
// count, the service client's inject stamp, the crossbar's latch release.
// The switch calls it at most once per cycle.
// Deliver is called by the switch at most once per cycle to eject a flit
// addressed to this node; f is good only for the call, so a node copies
// what it keeps.
//
// Nodes run in sim.PhaseNode and switches in sim.PhaseSwitch, so a flit
// enqueued by a node is injectable in the same cycle, giving the paper's
// peak throughput of one flit per cycle.
type LocalPort interface {
	Front() *flit.Flit
	Drop()
	Deliver(f *flit.Flit, now int64)
}

// InjectWaker is the optional LocalPort capability that lets the port's
// switch (or, on concentrated topologies, its local crossbar) sleep:
// Attach hands the port the handle of whoever drains it, and the port
// promises to Wake it whenever a flit becomes available to pull. A
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

// source is the injection side every traffic endpoint in this package
// embeds: the endpoint id, its queue and packet-id sequence, its own
// handle (sim.Sleeper's Bind) and the queue's puller's (InjectWaker).
type source struct {
	id           int
	topo         Topology
	outQ         queue.FIFO[flit.Flit]
	pktID        uint64
	wake, puller *sim.Handle
}

// newSource makes endpoint id's source; a queueCap of 0 is unbounded.
func newSource(id int, topo Topology, queueCap int) source {
	return source{id: id, topo: topo, outQ: *queue.NewFIFO[flit.Flit](queueCap)}
}

// emit is the one constructor of an injected flit: it queues a message
// flit for endpoint dst, stamped with the cycle and the endpoint's next
// packet id (id<<40 | sequence), and wakes the puller. The flit is built
// in its queue slot; the caller has checked that there is room.
func (s *source) emit(dst int, sub flit.SubType, data uint32, now int64) {
	dx, dy := s.topo.EndpointCoord(dst)
	s.pktID++
	*s.outQ.PushSlot() = flit.Flit{
		DstX: uint8(dx), DstY: uint8(dy),
		Type: flit.Message, Sub: sub,
		Src:  uint8(s.id & flit.MaxSrc),
		Data: data,
		Meta: flit.Meta{InjectCycle: now, PacketID: uint64(s.id)<<40 | s.pktID},
	}
	s.puller.Wake()
}

// Front implements LocalPort.
func (s *source) Front() *flit.Flit { return s.outQ.Front() }

// Drop implements LocalPort.
func (s *source) Drop() { s.outQ.Drop() }

// Pending returns the current source-queue occupancy.
func (s *source) Pending() int { return s.outQ.Len() }

// Bind implements sim.Sleeper.
func (s *source) Bind(h *sim.Handle) { s.wake = h }

// WakeOnInject implements InjectWaker.
func (s *source) WakeOnInject(h *sim.Handle) { s.puller = h }

// nullPort is attached to switches with no node; it never injects and
// counts (in tests, via the network stats) any stray delivery.
type nullPort struct{ delivered int64 }

func (n *nullPort) Front() *flit.Flit         { return nil }
func (n *nullPort) Drop()                     { panic("noc: Drop on a port with nothing to inject") }
func (n *nullPort) Deliver(*flit.Flit, int64) { n.delivered++ }
func (n *nullPort) Pending() int              { return 0 }
func (n *nullPort) WakeOnInject(*sim.Handle)  {} // never injects
