// Package noc implements the MEDEA network-on-chip as a cross-product of
// pluggable axes. The Topology axis selects the fabric: the paper's folded
// torus, a non-wrapping mesh, or a concentration-4 concentrated mesh
// (cmesh) that multiplexes four endpoints onto every switch through a
// local crossbar stage. The Router axis selects the switching algorithm:
// the paper's bufferless deflection ("hot potato") switch, a buffered XY
// dimension-order baseline, an age-weighted adaptive deflection router,
// and a 2-virtual-channel credit-flow-controlled wormhole router. A
// nine-pattern synthetic traffic library drives network-only evaluation.
// Every (topology, router, pattern) combination shares the same LocalPort
// contract, the same NetStats and the same conservation invariants — the
// differential conformance tests run the full cross-product — so routers
// and fabrics are directly comparable under identical traffic.
package noc

import (
	"fmt"

	"repro/internal/enum"
	"repro/internal/flit"
)

// Port identifies one of the four inter-switch directions.
type Port int

// The four grid directions. East/West move along X, North/South along Y.
const (
	East Port = iota
	West
	North
	South
	// NumPorts is the number of inter-switch ports per switch.
	NumPorts
)

// String implements fmt.Stringer.
func (p Port) String() string {
	switch p {
	case East:
		return "E"
	case West:
		return "W"
	case North:
		return "N"
	case South:
		return "S"
	}
	return fmt.Sprintf("port(%d)", int(p))
}

// Opposite returns the port on the neighbouring switch that a flit leaving
// through p arrives on.
func (p Port) Opposite() Port {
	switch p {
	case East:
		return West
	case West:
		return East
	case North:
		return South
	case South:
		return North
	}
	panic("noc: invalid port")
}

// TopologyKind selects a fabric for a Network. Topology is a first-class
// sweep axis named through an enum.Table, as RouterKind and Pattern are:
// every kind runs under the same Router implementations, the same
// LocalPort contract and the same NetStats, so structurally different
// fabrics are directly comparable under identical traffic.
type TopologyKind int

// The three fabric implementations.
const (
	// TopoTorus is the paper's W x H folded torus: every ring wraps, all
	// links are equal length, and every switch has all four ports.
	TopoTorus TopologyKind = iota
	// TopoMesh is a non-wrapping W x H mesh: edge switches lack the ports
	// that would cross the boundary (corner switches keep only two), and
	// no ring wraps, so the wormhole router needs no dateline.
	TopoMesh
	// TopoCMesh is a concentrated mesh: a (W/2) x (H/2) non-wrapping mesh
	// of switches, each serving a 2x2 tile of four endpoints through a
	// local crossbar stage.
	TopoCMesh

	// numTopologies counts the defined topology kinds (keep it last).
	numTopologies
)

var topologies = enum.New[TopologyKind]("noc", "topology", []string{
	TopoTorus: "torus",
	TopoMesh:  "mesh",
	TopoCMesh: "cmesh",
})

// String implements fmt.Stringer.
func (k TopologyKind) String() string { return topologies.String(k) }

// AllTopologies returns every defined topology kind in declaration order.
func AllTopologies() []TopologyKind { return topologies.All() }

// TopologyNames returns the canonical names of every topology kind, for
// flag documentation and error messages.
func TopologyNames() []string { return topologies.Names() }

// ParseTopology resolves a topology kind from its canonical name (as
// printed by TopologyKind.String) or its numeric value, by the rules of
// enum.Table.Parse.
func ParseTopology(s string) (TopologyKind, error) { return topologies.Parse(s) }

// Topology is a fabric of switches on a 2-D grid and the endpoints
// attached to them. It is a small comparable value, built only by
// NewTopologyOfKind (or NewTopology), and every kind is the same grid with
// two properties set: whether the rings wrap (the torus) and the side of
// the endpoint tile behind each switch (2 on the cmesh, else 1). Each
// method is one formula over those two properties.
//
// Two coordinate spaces coexist. The switch space is the grid the routers
// live on: Dims/NumNodes/Coord/ID/Neighbor/Dist and the routing functions
// (ProductivePorts, XYFirstPort) all speak switch coordinates. The
// endpoint space is the grid the attached nodes (traffic generators, PEs)
// live on: flit destination coordinates (Flit.DstX/DstY) are endpoint
// coordinates, and NumEndpoints/EndpointCoord/EndpointID address it. With
// a tile side of 1 the two spaces coincide; the concentrated mesh packs a
// 2x2 endpoint tile behind each switch, and SwitchOf/LocalIndex translate
// between the spaces.
type Topology struct {
	kind TopologyKind
	w, h int // switch grid
	tile int // endpoint tile side
}

// NewTopology validates and returns the paper's folded-torus topology. It
// is shorthand for NewTopologyOfKind(TopoTorus, w, h) and remains the
// constructor used by the full MEDEA system.
func NewTopology(w, h int) (Topology, error) { return NewTopologyOfKind(TopoTorus, w, h) }

// NewTopologyOfKind validates and returns a topology of the given kind
// with a w x h endpoint grid. For the torus and the mesh the switch grid
// is the endpoint grid; the concentrated mesh folds the endpoints into a
// (w/2) x (h/2) switch grid, so w and h must both be even multiples of
// the 2x2 concentration tile and at least 4. No side may exceed what a
// flit's destination coordinate can address (flit.MaxCoord+1).
func NewTopologyOfKind(kind TopologyKind, w, h int) (Topology, error) {
	tile := 1
	switch kind {
	case TopoTorus, TopoMesh:
		if w < 2 || h < 2 {
			return Topology{}, fmt.Errorf("noc: %v must be at least 2x2, got %dx%d", kind, w, h)
		}
	case TopoCMesh:
		if w%2 != 0 || h%2 != 0 {
			return Topology{}, fmt.Errorf("noc: cmesh endpoint grid must be divisible by the 2x2 concentration tile, got %dx%d", w, h)
		}
		if w < 4 || h < 4 {
			return Topology{}, fmt.Errorf("noc: cmesh needs at least a 4x4 endpoint grid (a 2x2 switch grid), got %dx%d", w, h)
		}
		tile = 2
	default:
		return Topology{}, fmt.Errorf("noc: unknown topology kind %d", int(kind))
	}
	if w > flit.MaxCoord+1 || h > flit.MaxCoord+1 {
		return Topology{}, fmt.Errorf("noc: %v endpoint grid %dx%d exceeds %d a side, the most a flit's coordinates address", kind, w, h, flit.MaxCoord+1)
	}
	return Topology{kind: kind, w: w / tile, h: h / tile, tile: tile}, nil
}

// wraps reports whether every ring closes on itself (the torus). A torus
// link out of the last switch of a ring leads to the first; a mesh has no
// link there, so edge switches lack the ports that would cross the
// boundary and corner switches keep only two.
func (t Topology) wraps() bool { return t.kind == TopoTorus }

// Kind returns the fabric's kind on the topology axis.
func (t Topology) Kind() TopologyKind { return t.kind }

// Dims returns the switch grid dimensions.
func (t Topology) Dims() (w, h int) { return t.w, t.h }

// NumNodes returns the number of switches.
func (t Topology) NumNodes() int { return t.w * t.h }

// Coord maps a switch id to its (x, y) grid coordinate.
func (t Topology) Coord(id int) (x, y int) {
	if id < 0 || id >= t.NumNodes() {
		panic(fmt.Sprintf("noc: node id %d out of range", id))
	}
	return id % t.w, id / t.w
}

// ID maps a coordinate to a switch id. It wraps modularly on every kind —
// it is an addressing helper, not a link function; whether a physical link
// crosses the boundary is Neighbor's business.
func (t Topology) ID(x, y int) int { return mod(y, t.h)*t.w + mod(x, t.w) }

func mod(a, n int) int { return (a%n + n) % n }

// Neighbor returns the switch one hop from id through port p, and
// ok=false when the fabric has no link there (mesh and cmesh edges).
func (t Topology) Neighbor(id int, p Port) (nb int, ok bool) {
	x, y := t.Coord(id)
	switch p {
	case East:
		x++
	case West:
		x--
	case North:
		y++
	case South:
		y--
	default:
		panic("noc: invalid port")
	}
	if !t.wraps() && (x < 0 || x >= t.w || y < 0 || y >= t.h) {
		return 0, false
	}
	return t.ID(x, y), true
}

// Dist returns the minimal hop count between two switches.
func (t Topology) Dist(a, b int) int {
	ax, ay := t.Coord(a)
	bx, by := t.Coord(b)
	return t.axisDist(ax, bx, t.w) + t.axisDist(ay, by, t.h)
}

// axisDist is the hop count from a to b along one ring of n switches:
// the shorter way round when it wraps, the straight line when it does not.
func (t Topology) axisDist(a, b, n int) int {
	if !t.wraps() {
		return max(b-a, a-b)
	}
	d := mod(b-a, n)
	return min(d, n-d)
}

// toward reports which directions along one ring of n switches strictly
// shorten the way from a to b: up (East or North) and down (West or
// South). Only a wrapping ring can tie, when b is exactly half-way round;
// then both do.
func (t Topology) toward(a, b, n int) (up, down bool) {
	if !t.wraps() {
		return b > a, b < a
	}
	d := mod(b-a, n)
	return d != 0 && d <= n-d, d != 0 && n-d <= d
}

// ProductivePorts appends to dst the ports that strictly reduce the
// fabric distance from switch (x, y) to switch (dstX, dstY) and returns
// the extended slice: X before Y, the positive direction first. Every
// returned port is a real link.
func (t Topology) ProductivePorts(dst []Port, x, y, dstX, dstY int) []Port {
	up, down := t.toward(x, dstX, t.w)
	if up {
		dst = append(dst, East)
	}
	if down {
		dst = append(dst, West)
	}
	up, down = t.toward(y, dstY, t.h)
	if up {
		dst = append(dst, North)
	}
	if down {
		dst = append(dst, South)
	}
	return dst
}

// XYFirstPort returns the dimension-order (X then Y) routing port from
// switch (x, y) towards switch (dstX, dstY) — the first productive port,
// East on a torus tie — and ok=false when already there. The returned
// port is always a real link.
func (t Topology) XYFirstPort(x, y, dstX, dstY int) (Port, bool) {
	var buf [NumPorts]Port
	if ports := t.ProductivePorts(buf[:0], x, y, dstX, dstY); len(ports) > 0 {
		return ports[0], true
	}
	return 0, false
}

// WrapCrossing reports whether the hop out of switch (x, y) through port
// p crosses a wrap-around link: on the torus, exactly when it leaves the
// last switch of its ring. It is the capability hook the wormhole router
// queries for dateline VC allocation; a mesh never wraps.
func (t Topology) WrapCrossing(x, y int, p Port) bool {
	if !t.wraps() {
		return false
	}
	switch p {
	case East:
		return x == t.w-1
	case West:
		return x == 0
	case North:
		return y == t.h-1
	case South:
		return y == 0
	}
	return false
}

// Concentration returns the number of endpoints attached to each switch
// (4 on the concentrated mesh, else 1).
func (t Topology) Concentration() int { return t.tile * t.tile }

// NumEndpoints returns the number of attachable endpoints.
func (t Topology) NumEndpoints() int { return t.NumNodes() * t.Concentration() }

// EndpointDims returns the endpoint grid dimensions.
func (t Topology) EndpointDims() (ew, eh int) { return t.w * t.tile, t.h * t.tile }

// EndpointCoord maps an endpoint id to its endpoint-grid coordinate (the
// coordinate carried in Flit.DstX/DstY).
func (t Topology) EndpointCoord(e int) (ex, ey int) {
	if e < 0 || e >= t.NumEndpoints() {
		panic(fmt.Sprintf("noc: endpoint id %d out of range", e))
	}
	ew, _ := t.EndpointDims()
	return e % ew, e / ew
}

// EndpointID maps an endpoint coordinate to an endpoint id, wrapping
// modularly (an addressing helper, like ID).
func (t Topology) EndpointID(ex, ey int) int {
	ew, eh := t.EndpointDims()
	return mod(ey, eh)*ew + mod(ex, ew)
}

// EndpointSwitch returns the switch an endpoint hangs off.
func (t Topology) EndpointSwitch(e int) int {
	x, y := t.SwitchOf(t.EndpointCoord(e))
	return y*t.w + x
}

// SwitchOf maps an endpoint coordinate to the coordinates of the switch
// serving it: the switch of its tile.
func (t Topology) SwitchOf(ex, ey int) (x, y int) { return ex / t.tile, ey / t.tile }

// LocalIndex returns the endpoint's slot on its switch's local crossbar,
// in [0, Concentration()): its position inside the tile, row-major.
func (t Topology) LocalIndex(ex, ey int) int {
	m := t.tile - 1 // the tile side is a power of two
	return ex&m + (ey&m)*t.tile
}
