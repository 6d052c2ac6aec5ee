package noc

import (
	"fmt"

	"repro/internal/flit"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Network is a fully wired NoC of switches running one of the RouterKind
// algorithms on one of the Topology fabrics. All combinations share the
// same link wiring, local-port contract and statistics, so routers and
// topologies are directly comparable under identical traffic.
type Network struct {
	Topo    Topology
	Kind    RouterKind
	Routers []Router

	// conc holds the per-switch local crossbars on concentrated
	// topologies (nil when Topo.Concentration() == 1).
	conc []*concentrator

	// Stats aggregates network-wide traffic measurements.
	Stats NetStats
}

// NetStats aggregates network-wide measurements.
type NetStats struct {
	Injected  stats.Counter
	Delivered stats.Counter
	Latency   stats.Running // inject-to-eject cycles
	Hops      stats.Running

	// LatencySample, when non-nil, additionally records every delivered
	// flit's latency for exact percentile reporting. The scenario runner
	// attaches one at the start of its measurement window.
	LatencySample *stats.CycleSample
}

// NewRouterNetwork builds the topology's switch grid with switches of the
// given kind, wires every link the fabric defines (mesh edges have none),
// registers everything with the engine (sim.PhaseSwitch; local crossbars
// of concentrated topologies in sim.PhaseNode), and attaches a null port
// to every endpoint. Call Attach to connect real nodes.
func NewRouterNetwork(e *sim.Engine, topo Topology, kind RouterKind) *Network {
	n := &Network{Topo: topo, Kind: kind}
	n.Routers = make([]Router, topo.NumNodes())
	for id := range n.Routers {
		x, y := topo.Coord(id)
		n.Routers[id] = newRouter(kind, routerPorts{
			id: id, x: x, y: y, local: &nullPort{}, net: n,
		})
	}
	// Create one register per directed link, shared between the producing
	// switch's out port and the consuming switch's in port. Ports the
	// fabric defines no link for stay nil, and every router skips them.
	for id, r := range n.Routers {
		rp := r.wiring()
		rp.routeTable = newRouteTable(topo, id)
		for p := Port(0); p < NumPorts; p++ {
			nb, ok := topo.Neighbor(id, p)
			if !ok {
				continue
			}
			reg := sim.NewReg[flit.Flit](e, fmt.Sprintf("link %d.%v", id, p))
			rp.out[p] = reg
			n.Routers[nb].wiring().in[p.Opposite()] = reg
		}
	}
	// Cross-switch wiring beyond the links (credit wires, congestion
	// taps) can be strung only after every switch exists.
	switch kind {
	case RouterWormhole:
		for _, r := range n.Routers {
			r.(*WormholeSwitch).wireCredits(n)
		}
	case RouterAdaptive:
		for _, r := range n.Routers {
			r.(*AdaptiveSwitch).wireNeighbors(e, n)
		}
	}
	// Concentrated topologies put a local crossbar between each switch
	// and its endpoints; it runs on the endpoint side of the clock.
	if topo.Concentration() > 1 {
		n.conc = make([]*concentrator, topo.NumNodes())
		for id := range n.Routers {
			n.conc[id] = newConcentrator(topo, id, n)
			e.Register(sim.PhaseNode, n.conc[id])
		}
	}
	for _, r := range n.Routers {
		e.Register(sim.PhaseSwitch, r)
	}
	// Wake wiring, now that every switch holds its handle: a link
	// register's commit wakes the switch that reads it, and the local
	// port (null until Attach) wakes the switch it injects into.
	for id, r := range n.Routers {
		rp := r.wiring()
		for p := Port(0); p < NumPorts; p++ {
			if rp.in[p] != nil {
				rp.in[p].Wakes(rp.wake)
			}
		}
		if n.conc != nil {
			rp.attachLocal(n.conc[id])
		} else {
			rp.attachLocal(rp.local)
		}
	}
	return n
}

// Attach connects a node's local port to the endpoint with the given id
// (on non-concentrated topologies an endpoint id is a switch id; on the
// cmesh it selects the slot on the owning switch's local crossbar).
func (n *Network) Attach(id int, lp LocalPort) {
	if lp == nil {
		panic("noc: nil local port")
	}
	if id < 0 || id >= n.Topo.NumEndpoints() {
		panic(fmt.Sprintf("noc: endpoint id %d out of range", id))
	}
	if n.conc != nil {
		ex, ey := n.Topo.EndpointCoord(id)
		n.conc[n.Topo.EndpointSwitch(id)].attach(n.Topo.LocalIndex(ex, ey), lp)
		return
	}
	n.Routers[id].wiring().attachLocal(lp)
}

// ConcentratorHeld sums the flits currently latched in the local crossbar
// stages of a concentrated topology (always 0 otherwise). Latched flits
// are source-side — not yet injected — so they are excluded from InFlight;
// drain checks add this term to know the sources are truly empty.
func (n *Network) ConcentratorHeld() int {
	c := 0
	for _, cc := range n.conc {
		c += cc.held()
	}
	return c
}

// ConcentratorTurnarounds sums the same-switch deliveries made inside the
// local crossbars (always 0 on non-concentrated topologies). These flits
// count in NetStats but never traverse a switch, so per-switch counters
// (Router.EjectedCount, the VCD tracer's ejection signals) legitimately
// exclude them; NetStats.Delivered equals the sum of all
// Router.EjectedCount plus this term.
func (n *Network) ConcentratorTurnarounds() int64 {
	var c int64
	for _, cc := range n.conc {
		c += cc.turnarounds
	}
	return c
}

// InFlight counts flits currently travelling on links or stored inside
// switches. Injected == Delivered + InFlight is the conservation invariant
// checked by the differential conformance tests; for bufferless kinds the
// stored term is always zero and InFlight degenerates to the link count.
func (n *Network) InFlight() int {
	c := 0
	for _, r := range n.Routers {
		c += r.wiring().outOccupancy() + r.Buffered()
	}
	return c
}

// BufferedNow sums the flits currently stored inside all switches.
func (n *Network) BufferedNow() int {
	c := 0
	for _, r := range n.Routers {
		c += r.Buffered()
	}
	return c
}

// PeakBuffer returns the worst per-switch buffer occupancy observed over
// the run, i.e. the minimum per-switch storage a real implementation of
// this router would have needed. Always 0 for bufferless kinds.
func (n *Network) PeakBuffer() int {
	peak := 0
	for _, r := range n.Routers {
		if p := r.PeakBuffered(); p > peak {
			peak = p
		}
	}
	return peak
}

// TotalDeflections sums deflections over all switches (0 for buffered
// kinds, which never deflect).
func (n *Network) TotalDeflections() int64 {
	var c int64
	for _, r := range n.Routers {
		c += r.Deflections()
	}
	return c
}

func (n *Network) noteInjected() { n.Stats.Injected.Inc() }

func (n *Network) noteDelivered(f *flit.Flit, now int64) {
	n.Stats.Delivered.Inc()
	n.Stats.Latency.Observe(float64(now - f.Meta.InjectCycle))
	n.Stats.Hops.Observe(float64(f.Meta.Hops))
	if n.Stats.LatencySample != nil {
		n.Stats.LatencySample.Observe(now - f.Meta.InjectCycle)
	}
}
