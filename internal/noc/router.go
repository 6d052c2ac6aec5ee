package noc

import (
	"fmt"
	"unsafe"

	"repro/internal/enum"
	"repro/internal/flit"
	"repro/internal/sim"
)

// RouterKind selects a routing algorithm for a Network. Routing is a
// first-class sweep axis: every kind runs under the same Topology, the same
// LocalPort contract and the same NetStats, so routers are directly
// comparable under identical traffic (and must agree on the conservation
// invariants even where they disagree on latency — see the differential
// conformance tests).
type RouterKind int

// The four router implementations.
const (
	// RouterDeflection is the paper's bufferless hot-potato switch:
	// oldest-first arbitration, productive ports preferred, losers deflect.
	RouterDeflection RouterKind = iota
	// RouterXY is the buffered dimension-order (X then Y) baseline with
	// unbounded input queues, the router the paper argues against.
	RouterXY
	// RouterAdaptive is an age-weighted adaptive deflection router: like
	// RouterDeflection, but among free productive ports it picks the one
	// whose downstream switch currently sees the least traffic.
	RouterAdaptive
	// RouterWormhole is a 2-virtual-channel input-buffered wormhole router
	// with credit-based flow control and dateline VC allocation for
	// deadlock freedom on the torus rings.
	RouterWormhole

	// numRouters counts the defined router kinds (keep it last).
	numRouters
)

var routers = enum.New[RouterKind]("noc", "router", []string{
	RouterDeflection: "deflection",
	RouterXY:         "xy",
	RouterAdaptive:   "adaptive",
	RouterWormhole:   "wormhole",
})

// String implements fmt.Stringer.
func (k RouterKind) String() string { return routers.String(k) }

// Bufferless reports whether the kind stores no flits inside the switch
// (the minimal-storage property the paper argues for). The conformance
// tests assert Buffered() == 0 every cycle for bufferless kinds.
func (k RouterKind) Bufferless() bool {
	return k == RouterDeflection || k == RouterAdaptive
}

// AllRouters returns every defined router kind in declaration order.
func AllRouters() []RouterKind { return routers.All() }

// RouterNames returns the canonical names of every router kind, for flag
// documentation and error messages.
func RouterNames() []string { return routers.Names() }

// ParseRouter resolves a router kind from its canonical name (as printed
// by RouterKind.String) or its numeric value, by the rules of
// enum.Table.Parse.
func ParseRouter(s string) (RouterKind, error) { return routers.Parse(s) }

// Router is one switch instance of a routing algorithm. Implementations
// share the wiring block (routerPorts) that NewRouterNetwork fills in; the
// interface exposes only what the network, tracer and conformance tests
// need, so the set of implementations stays closed inside this package.
type Router interface {
	sim.Component
	// ID returns the switch's node id.
	ID() int
	// Buffered returns the number of flits currently stored inside the
	// router (input buffers and injection queue); bufferless routers
	// always return 0.
	Buffered() int
	// PeakBuffered returns the most flits ever stored at once, i.e. the
	// storage a real implementation of this switch would have needed.
	PeakBuffered() int
	// Deflections returns the cumulative count of unproductive hops
	// assigned by this switch (always 0 for buffered routers).
	Deflections() int64
	// EjectedCount returns the cumulative deliveries to the local node
	// made through the switch's ejection port. On concentrated topologies
	// same-switch traffic is delivered inside the local crossbar without
	// traversing the switch and is counted by
	// Network.ConcentratorTurnarounds instead.
	EjectedCount() int64
	// wiring exposes the wiring block to the network constructor.
	wiring() *routerPorts
}

// routerPorts is the per-switch wiring shared by every Router
// implementation: the four link registers in each direction, the local
// node port, and the back-pointer to the owning network for stats.
// Implementations embed it, so field access reads like the hardware it
// models (s.in[p], s.out[p], s.local). On topologies without wrap-around
// links (mesh, cmesh) the registers of boundary-crossing ports are nil and
// every port loop skips them.
type routerPorts struct {
	id   int
	x, y int
	in   [NumPorts]*sim.Reg[flit.Flit]
	out  [NumPorts]*sim.Reg[flit.Flit]
	// routeTable is all the switch keeps of the topology.
	routeTable

	local LocalPort
	net   *Network

	// wake is the switch's own scheduling handle; localWakes records that
	// the attached local port promised to wake it (InjectWaker), without
	// which the switch never sleeps.
	wake       *sim.Handle
	localWakes bool
}

// route is what a switch does with flits for one destination endpoint.
type route struct {
	eject    bool           // the endpoint hangs off this switch
	nprod    uint8          // how many of prod are set
	prodMask uint8          // prod as a set: bit p for Port p
	prod     [NumPorts]Port // Topology.ProductivePorts, in its (ascending) order
	xy       Port           // Topology.XYFirstPort; unset when eject
}

// productive returns the ports that bring a flit closer.
func (r *route) productive() []Port { return r.prod[:r.nprod] }

// RouteBytes is the size of one switch's route to one endpoint.
const RouteBytes = int64(unsafe.Sizeof(route{}))

// RouteTableBytes is what the route tables of one network on t take:
// every switch keeps a route to every endpoint, so they grow as the square
// of the grid.
func (t Topology) RouteTableBytes() int64 {
	return int64(t.NumNodes()) * int64(t.NumEndpoints()) * RouteBytes
}

// routeTable is every routing answer a switch's Step needs, asked of the
// Topology once at wiring time: the fabric is fixed from then on, and the
// per-flit per-hop path is no place for modular arithmetic. The Topology
// stays the only place routing is defined — the table holds its answers
// and nothing derived any other way, which TestRouteTableMatchesTopology
// checks entry by entry.
type routeTable struct {
	routes   []route // by destination endpoint, row-major over the endpoint grid
	ew       int     // endpoint grid width
	ports    []Port  // the ports with a link, ascending
	linkMask uint8   // ports as a set: bit p for Port p
	wrap     [NumPorts]bool
}

func newRouteTable(topo Topology, id int) routeTable {
	x, y := topo.Coord(id)
	ew, _ := topo.EndpointDims()
	t := routeTable{routes: make([]route, topo.NumEndpoints()), ew: ew}
	for e := range t.routes {
		ex, ey := topo.EndpointCoord(e)
		dx, dy := topo.SwitchOf(ex, ey)
		r := &t.routes[ey*ew+ex]
		r.eject = dx == x && dy == y
		r.nprod = uint8(len(topo.ProductivePorts(r.prod[:0], x, y, dx, dy)))
		for _, p := range r.productive() {
			r.prodMask |= 1 << p
		}
		var ok bool
		if r.xy, ok = topo.XYFirstPort(x, y, dx, dy); ok == r.eject {
			panic(fmt.Sprintf("noc: %v topology has no dimension-order hop from switch %d to endpoint %d", topo.Kind(), id, e))
		}
	}
	for p := Port(0); p < NumPorts; p++ {
		if _, ok := topo.Neighbor(id, p); ok {
			t.ports = append(t.ports, p)
			t.linkMask |= 1 << p
			t.wrap[p] = topo.WrapCrossing(x, y, p)
		}
	}
	return t
}

// route looks up the flit's destination endpoint. Every router resolves a
// flit through this before routing or ejecting it.
func (t *routeTable) route(f *flit.Flit) *route {
	return &t.routes[int(f.DstY)*t.ew+int(f.DstX)]
}

// ID implements Router.
func (rp *routerPorts) ID() int { return rp.id }

// Bind implements sim.Sleeper for every router kind. The switch's input
// paths are its link registers (declared consumers in NewRouterNetwork)
// and its local port (InjectWaker). A wormhole switch's returned credits
// wake nothing: each is stamped with its cycle and waits for the switch's
// next Step.
func (rp *routerPorts) Bind(h *sim.Handle) { rp.wake = h }

// attachLocal connects the local port and asks it to wake this switch on
// injection.
func (rp *routerPorts) attachLocal(lp LocalPort) {
	rp.local = lp
	rp.localWakes = bindInject(lp, rp.wake)
}

// localIdle reports whether the local port provably has nothing to inject
// and will wake the switch when that changes.
func (rp *routerPorts) localIdle() bool { return rp.localWakes && portIdle(rp.local) }

func (rp *routerPorts) wiring() *routerPorts { return rp }

// outOccupancy counts output links carrying a flit this cycle.
func (rp *routerPorts) outOccupancy() int {
	c := 0
	for p := Port(0); p < NumPorts; p++ {
		if rp.out[p] != nil && rp.out[p].Valid() {
			c++
		}
	}
	return c
}

// newRouter constructs an unwired switch of the given kind.
func newRouter(kind RouterKind, rp routerPorts) Router {
	switch kind {
	case RouterDeflection:
		return &DeflSwitch{deflector{routerPorts: rp}}
	case RouterXY:
		return newXYSwitch(rp)
	case RouterAdaptive:
		return &AdaptiveSwitch{deflector{routerPorts: rp}}
	case RouterWormhole:
		return newWormholeSwitch(rp)
	}
	panic(fmt.Sprintf("noc: unknown router kind %d", int(kind)))
}
