package noc

import (
	"fmt"

	"repro/internal/flit"
	"repro/internal/sim"
)

// CMeshConcentration is the concentrated mesh's concentration factor:
// each switch serves a 2x2 tile of four endpoints through a local
// crossbar stage.
const CMeshConcentration = 4

// CMesh is a concentrated mesh: a W x H endpoint grid folded onto a
// (W/2) x (H/2) non-wrapping mesh of switches, each serving the 2x2
// endpoint tile above it through a local crossbar. Concentration trades
// bisection bandwidth per endpoint for a quarter of the switches and
// links — the classic area/throughput knob on the topology axis. Flit
// destination coordinates stay in the endpoint grid; SwitchOf and
// LocalIndex fold them onto the switch fabric and the crossbar slot.
type CMesh struct {
	// W, H are the endpoint grid dimensions (both even, >= 4).
	W, H int
}

// switchGrid returns the switch fabric as the Mesh it is; every
// switch-space Topology method delegates to it, so the mesh routing
// functions have exactly one implementation.
func (t CMesh) switchGrid() Mesh { return Mesh{W: t.W / 2, H: t.H / 2} }

// Kind implements Topology.
func (t CMesh) Kind() TopologyKind { return TopoCMesh }

// Dims implements Topology; the switch grid, a quarter of the endpoints.
func (t CMesh) Dims() (int, int) { return t.switchGrid().Dims() }

// NumNodes returns the number of switches.
func (t CMesh) NumNodes() int { return t.switchGrid().NumNodes() }

// Coord maps a switch id to its (x, y) switch-grid coordinate.
func (t CMesh) Coord(id int) (x, y int) { return t.switchGrid().Coord(id) }

// ID maps a switch coordinate to a switch id, wrapping modularly (an
// addressing helper, like Mesh.ID).
func (t CMesh) ID(x, y int) int { return t.switchGrid().ID(x, y) }

// Neighbor returns the switch one hop through port p, and ok=false at the
// mesh boundary.
func (t CMesh) Neighbor(id int, p Port) (int, bool) { return t.switchGrid().Neighbor(id, p) }

// Dist returns the Manhattan distance between two switches.
func (t CMesh) Dist(a, b int) int { return t.switchGrid().Dist(a, b) }

// ProductivePorts implements Topology over the switch grid.
func (t CMesh) ProductivePorts(dst []Port, x, y, dstX, dstY int) []Port {
	return t.switchGrid().ProductivePorts(dst, x, y, dstX, dstY)
}

// XYFirstPort implements Topology over the switch grid.
func (t CMesh) XYFirstPort(x, y, dstX, dstY int) (Port, bool) {
	return t.switchGrid().XYFirstPort(x, y, dstX, dstY)
}

// WrapCrossing implements Topology; the cmesh switch fabric never wraps.
func (t CMesh) WrapCrossing(x, y int, p Port) bool { return false }

// Concentration implements Topology.
func (t CMesh) Concentration() int { return CMeshConcentration }

// NumEndpoints implements Topology.
func (t CMesh) NumEndpoints() int { return t.W * t.H }

// EndpointDims implements Topology.
func (t CMesh) EndpointDims() (int, int) { return t.W, t.H }

// EndpointCoord maps an endpoint id to its endpoint-grid coordinate.
func (t CMesh) EndpointCoord(e int) (int, int) {
	if e < 0 || e >= t.NumEndpoints() {
		panic(fmt.Sprintf("noc: endpoint id %d out of range", e))
	}
	return e % t.W, e / t.W
}

// EndpointID maps an endpoint coordinate to an endpoint id, wrapping
// modularly.
func (t CMesh) EndpointID(ex, ey int) int {
	ex = ((ex % t.W) + t.W) % t.W
	ey = ((ey % t.H) + t.H) % t.H
	return ey*t.W + ex
}

// EndpointSwitch returns the switch serving endpoint e.
func (t CMesh) EndpointSwitch(e int) int {
	ex, ey := t.EndpointCoord(e)
	x, y := t.SwitchOf(ex, ey)
	w, _ := t.Dims()
	return y*w + x
}

// SwitchOf folds an endpoint coordinate onto its 2x2 tile's switch.
func (t CMesh) SwitchOf(ex, ey int) (int, int) { return ex / 2, ey / 2 }

// LocalIndex returns the endpoint's slot on its switch's crossbar: the
// position inside the 2x2 tile, row-major.
func (t CMesh) LocalIndex(ex, ey int) int { return (ex & 1) | (ey&1)<<1 }

// concentrator is the concentrated mesh's local crossbar stage: it
// multiplexes a switch's Concentration() endpoints onto the switch's
// single LocalPort. On the injection side it pulls at most one flit per
// cycle, round-robin across the endpoints, into a one-flit output latch
// the switch drains through TryPull — the latch is source-side storage
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
		f, ok := c.eps[slot].TryPull()
		if !ok {
			continue
		}
		c.rr = (slot + 1) % len(c.eps)
		dx, dy := c.topo.SwitchOf(int(f.DstX), int(f.DstY))
		if dx == c.x && dy == c.y {
			// Same-switch traffic turns around in the crossbar.
			c.turnarounds++
			c.net.noteInjected()
			c.net.noteDelivered(&f, now)
			c.eps[c.topo.LocalIndex(int(f.DstX), int(f.DstY))].Deliver(f, now)
			return
		}
		c.latch, c.hasLatch = f, true
		c.sw.Wake()
		return
	}
	c.wake.Idle()
}

// TryPull implements LocalPort for the switch side.
func (c *concentrator) TryPull() (flit.Flit, bool) {
	if !c.hasLatch {
		return flit.Flit{}, false
	}
	c.hasLatch = false
	return c.latch, true
}

// Deliver implements LocalPort for the switch side, demultiplexing the
// ejected flit to the addressed endpoint.
func (c *concentrator) Deliver(f flit.Flit, now int64) {
	c.eps[c.topo.LocalIndex(int(f.DstX), int(f.DstY))].Deliver(f, now)
}

// held returns the latch occupancy (0 or 1), for drain checks.
func (c *concentrator) held() int {
	if c.hasLatch {
		return 1
	}
	return 0
}
