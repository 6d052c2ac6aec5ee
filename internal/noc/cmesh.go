package noc

import (
	"fmt"

	"repro/internal/flit"
	"repro/internal/sim"
)

// concentrator is the concentrated mesh's local crossbar stage: it
// multiplexes a switch's Concentration() endpoints onto the switch's
// single LocalPort. On the injection side it pulls at most one flit per
// cycle, round-robin across the endpoints, into a one-flit output latch
// the switch drains through Front and Drop — the latch is source-side storage
// (like the endpoints' own injection queues), so the bufferless routers'
// zero-storage property is untouched. Traffic between two endpoints of
// the same switch turns around inside the crossbar without ever entering
// the network: it counts as injected and delivered in the same cycle, so
// the conservation invariant holds on every cycle boundary. On the
// ejection side Deliver demultiplexes by the flit's endpoint coordinate.
//
// The concentrator runs in sim.PhaseNode (it is part of the endpoint side
// of the LocalPort contract), adding the one cycle of multiplexer latency
// a real concentration stage costs.
type concentrator struct {
	topo Topology
	swID int
	x, y int
	net  *Network

	eps []LocalPort
	rr  int

	// wake is the crossbar's own handle, sw the handle of the switch that
	// drains the latch; epWakes counts the endpoints that promised to wake
	// the crossbar on injection (it sleeps only when all of them did).
	wake, sw *sim.Handle
	epWakes  int

	latch    flit.Flit
	hasLatch bool

	// turnarounds counts same-switch deliveries made inside the crossbar.
	// These flits never traverse the switch, so they appear in NetStats
	// but in no Router's per-switch counters; this counter closes that
	// gap (NetStats.Delivered == sum of Router.EjectedCount + sum of
	// turnarounds, asserted by the conformance tests).
	turnarounds int64
}

func newConcentrator(topo Topology, swID int, net *Network) *concentrator {
	x, y := topo.Coord(swID)
	c := &concentrator{topo: topo, swID: swID, x: x, y: y, net: net,
		eps: make([]LocalPort, topo.Concentration())}
	for i := range c.eps {
		c.attach(i, &nullPort{})
	}
	return c
}

// Bind implements sim.Sleeper. The crossbar's input paths are its
// endpoints' injection queues (InjectWaker) and the switch draining the
// latch, which matters only while an endpoint holds flits — and then
// NextEvent keeps the crossbar awake.
func (c *concentrator) Bind(h *sim.Handle) {
	c.wake = h
	for _, ep := range c.eps {
		bindInject(ep, h)
	}
}

// WakeOnInject implements InjectWaker toward the switch: a latched flit
// is the switch's to pull.
func (c *concentrator) WakeOnInject(h *sim.Handle) { c.sw = h }

// attach connects an endpoint to a crossbar slot.
func (c *concentrator) attach(slot int, lp LocalPort) {
	if _, ok := c.eps[slot].(InjectWaker); ok {
		c.epWakes--
	}
	c.eps[slot] = lp
	if bindInject(lp, c.wake) {
		c.epWakes++
	}
}

// Name implements sim.Component.
func (c *concentrator) Name() string { return fmt.Sprintf("conc(%d,%d)", c.x, c.y) }

// Step implements sim.Component; it runs in sim.PhaseNode.
func (c *concentrator) Step(now int64) {
	if c.hasLatch {
		return // the switch has not drained the latch yet: backpressure
	}
	for i := 0; i < len(c.eps); i++ {
		slot := (c.rr + i) % len(c.eps)
		ep := c.eps[slot]
		f := ep.Front()
		if f == nil {
			continue
		}
		c.rr = (slot + 1) % len(c.eps)
		// The latch takes the flit either way: a turnaround is delivered
		// from it, as the endpoint's Front is not good past its Drop.
		c.latch = *f
		ep.Drop()
		dx, dy := c.topo.SwitchOf(int(c.latch.DstX), int(c.latch.DstY))
		if dx == c.x && dy == c.y {
			// Same-switch traffic turns around in the crossbar.
			c.turnarounds++
			c.net.noteInjected()
			c.net.noteDelivered(&c.latch, now)
			c.Deliver(&c.latch, now)
			return
		}
		c.hasLatch = true
		c.sw.Wake()
		return
	}
	c.wake.Idle()
}

// Front implements LocalPort for the switch side.
func (c *concentrator) Front() *flit.Flit {
	if !c.hasLatch {
		return nil
	}
	return &c.latch
}

// Drop implements LocalPort for the switch side, releasing the latch.
func (c *concentrator) Drop() { c.hasLatch = false }

// Deliver implements LocalPort for the switch side, demultiplexing the
// ejected flit to the addressed endpoint.
func (c *concentrator) Deliver(f *flit.Flit, now int64) {
	c.eps[c.topo.LocalIndex(int(f.DstX), int(f.DstY))].Deliver(f, now)
}

// held returns the latch occupancy (0 or 1), for drain checks.
func (c *concentrator) held() int {
	if c.hasLatch {
		return 1
	}
	return 0
}
