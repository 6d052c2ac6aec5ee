package noc

// The topologies as they were before one Topology value replaced them: an
// interface with one implementation per fabric (the torus, the mesh, and
// the cmesh that delegates its switch grid to a mesh). They are kept here
// unchanged but for their names, as the oracle the Topology formulas are
// held to method by method (TestTopologyMatchesReference, FuzzTopology).

import "fmt"

// refTopology describes a fabric of switches on a 2-D grid and the endpoints
// attached to them. Implementations are small value types (refTorus, refMesh,
// refCMesh) safe to copy and compare.
//
// Two coordinate spaces coexist. The switch space is the grid the routers
// live on: Dims/NumNodes/Coord/ID/Neighbor/Dist and the routing functions
// (ProductivePorts, XYFirstPort) all speak switch coordinates. The
// endpoint space is the grid the attached nodes (traffic generators, PEs)
// live on: flit destination coordinates (Flit.DstX/DstY) are endpoint
// coordinates, and NumEndpoints/EndpointCoord/EndpointID address it. For
// the torus and the mesh the two spaces coincide (Concentration() == 1);
// the concentrated mesh packs a 2x2 endpoint tile behind each switch, and
// SwitchOf/LocalIndex translate between the spaces.
type refTopology interface {
	// Kind returns the fabric's kind on the topology axis.
	Kind() TopologyKind
	// Dims returns the switch grid dimensions.
	Dims() (w, h int)
	// NumNodes returns the number of switches.
	NumNodes() int
	// Coord maps a switch id to its (x, y) grid coordinate.
	Coord(id int) (x, y int)
	// ID maps a coordinate to a switch id. It wraps modularly on every
	// kind — it is an addressing helper, not a link function; whether a
	// physical link crosses the boundary is Neighbor's business.
	ID(x, y int) int
	// Neighbor returns the switch one hop from id through port p, and
	// ok=false when the fabric has no link there (mesh and cmesh edges).
	Neighbor(id int, p Port) (nb int, ok bool)
	// Dist returns the minimal hop count between two switches.
	Dist(a, b int) int
	// ProductivePorts appends to dst the ports that strictly reduce the
	// fabric distance from switch (x, y) to switch (dstX, dstY) and
	// returns the extended slice. Every returned port is a real link.
	ProductivePorts(dst []Port, x, y, dstX, dstY int) []Port
	// XYFirstPort returns the dimension-order (X then Y) routing port from
	// switch (x, y) towards switch (dstX, dstY), and ok=false when already
	// there. The returned port is always a real link.
	XYFirstPort(x, y, dstX, dstY int) (Port, bool)
	// WrapCrossing reports whether the hop out of switch (x, y) through
	// port p crosses a wrap-around link. It is the capability hook the
	// wormhole router queries for dateline VC allocation: only wrapping
	// rings (the torus) need the VC-1 escape; mesh fabrics never wrap and
	// always return false.
	WrapCrossing(x, y int, p Port) bool

	// Concentration returns the number of endpoints attached to each
	// switch (1 except for the concentrated mesh).
	Concentration() int
	// NumEndpoints returns the number of attachable endpoints.
	NumEndpoints() int
	// EndpointDims returns the endpoint grid dimensions.
	EndpointDims() (ew, eh int)
	// EndpointCoord maps an endpoint id to its endpoint-grid coordinate
	// (the coordinate carried in Flit.DstX/DstY).
	EndpointCoord(e int) (ex, ey int)
	// EndpointID maps an endpoint coordinate to an endpoint id, wrapping
	// modularly (an addressing helper, like ID).
	EndpointID(ex, ey int) int
	// EndpointSwitch returns the switch an endpoint hangs off.
	EndpointSwitch(e int) int
	// SwitchOf maps an endpoint coordinate to the coordinates of the
	// switch serving it (identity unless concentrated).
	SwitchOf(ex, ey int) (x, y int)
	// LocalIndex returns the endpoint's slot on its switch's local
	// crossbar, in [0, Concentration()).
	LocalIndex(ex, ey int) int
}

// refTorus is the paper's W x H folded torus. A folded torus is physically
// laid out with interleaved nodes so all links have equal length;
// logically it is a torus, so routing uses plain modular distances. One
// endpoint attaches to every switch.
type refTorus struct {
	W, H int
}

// Kind implements Topology.
func (t refTorus) Kind() TopologyKind { return TopoTorus }

// Dims implements Topology.
func (t refTorus) Dims() (int, int) { return t.W, t.H }

// NumNodes returns the number of switches.
func (t refTorus) NumNodes() int { return t.W * t.H }

// Coord maps a switch id to its (x, y) coordinate.
func (t refTorus) Coord(id int) (x, y int) {
	if id < 0 || id >= t.NumNodes() {
		panic(fmt.Sprintf("noc: node id %d out of range", id))
	}
	return id % t.W, id / t.W
}

// ID maps a coordinate to a switch id, wrapping around the torus.
func (t refTorus) ID(x, y int) int {
	x = ((x % t.W) + t.W) % t.W
	y = ((y % t.H) + t.H) % t.H
	return y*t.W + x
}

// Neighbor returns the switch one hop from id through port p; every torus
// link exists, so ok is always true.
func (t refTorus) Neighbor(id int, p Port) (int, bool) {
	x, y := t.Coord(id)
	switch p {
	case East:
		return t.ID(x+1, y), true
	case West:
		return t.ID(x-1, y), true
	case North:
		return t.ID(x, y+1), true
	case South:
		return t.ID(x, y-1), true
	}
	panic("noc: invalid port")
}

// Dist returns the minimal hop count between two switches on the torus.
func (t refTorus) Dist(a, b int) int {
	ax, ay := t.Coord(a)
	bx, by := t.Coord(b)
	return refAxisDist(ax, bx, t.W) + refAxisDist(ay, by, t.H)
}

func refAxisDist(a, b, n int) int {
	d := ((b-a)%n + n) % n
	if n-d < d {
		return n - d
	}
	return d
}

// ProductivePorts appends to dst the ports that strictly reduce the torus
// distance from (x, y) to (dstX, dstY) and returns the extended slice.
// When the destination is equidistant in both directions of an axis (even
// torus, exactly half-way) both directions are productive.
func (t refTorus) ProductivePorts(dst []Port, x, y, dstX, dstY int) []Port {
	// This runs once per routed flit per cycle; coordinates are in range
	// in every caller, so wrap with a subtraction and keep the div-based
	// modulo as a fallback for out-of-range inputs only.
	de := dstX - x
	if de < 0 {
		de += t.W
	}
	if de < 0 || de >= t.W {
		de = ((dstX-x)%t.W + t.W) % t.W
	}
	if de != 0 {
		dw := t.W - de
		if de <= dw {
			dst = append(dst, East)
		}
		if dw <= de {
			dst = append(dst, West)
		}
	}
	dn := dstY - y
	if dn < 0 {
		dn += t.H
	}
	if dn < 0 || dn >= t.H {
		dn = ((dstY-y)%t.H + t.H) % t.H
	}
	if dn != 0 {
		ds := t.H - dn
		if dn <= ds {
			dst = append(dst, North)
		}
		if ds <= dn {
			dst = append(dst, South)
		}
	}
	return dst
}

// XYFirstPort returns the dimension-order (X then Y) routing port from
// (x, y) towards (dstX, dstY), choosing the shorter wrap direction, and
// ok=false when already at the destination.
func (t refTorus) XYFirstPort(x, y, dstX, dstY int) (Port, bool) {
	if x != dstX {
		de := ((dstX-x)%t.W + t.W) % t.W
		if de <= t.W-de {
			return East, true
		}
		return West, true
	}
	if y != dstY {
		dn := ((dstY-y)%t.H + t.H) % t.H
		if dn <= t.H-dn {
			return North, true
		}
		return South, true
	}
	return 0, false
}

// WrapCrossing implements Topology: the hop crosses a wrap-around link
// exactly when it leaves the last switch of its ring, which is where the
// wormhole router's dateline moves packets to the escape VC.
func (t refTorus) WrapCrossing(x, y int, p Port) bool {
	switch p {
	case East:
		return x == t.W-1
	case West:
		return x == 0
	case North:
		return y == t.H-1
	case South:
		return y == 0
	}
	return false
}

// Concentration implements Topology; one endpoint per torus switch.
func (t refTorus) Concentration() int { return 1 }

// NumEndpoints implements Topology.
func (t refTorus) NumEndpoints() int { return t.NumNodes() }

// EndpointDims implements Topology.
func (t refTorus) EndpointDims() (int, int) { return t.W, t.H }

// EndpointCoord implements Topology; endpoint space is switch space.
func (t refTorus) EndpointCoord(e int) (int, int) { return t.Coord(e) }

// EndpointID implements Topology.
func (t refTorus) EndpointID(ex, ey int) int { return t.ID(ex, ey) }

// EndpointSwitch implements Topology.
func (t refTorus) EndpointSwitch(e int) int { return e }

// SwitchOf implements Topology.
func (t refTorus) SwitchOf(ex, ey int) (int, int) { return ex, ey }

// LocalIndex implements Topology.
func (t refTorus) LocalIndex(ex, ey int) int { return 0 }

// refMesh is a non-wrapping W x H mesh: the same grid as the torus minus the
// wrap-around links. Edge switches lack the ports that would cross the
// boundary — corner switches keep only two — which is exactly the case the
// deflection-class routers must survive with fewer escape ports, and no
// ring wraps, so dimension-order routing is deadlock free without a
// dateline. One endpoint attaches to every switch.
type refMesh struct {
	W, H int
}

// Kind implements Topology.
func (t refMesh) Kind() TopologyKind { return TopoMesh }

// Dims implements Topology.
func (t refMesh) Dims() (int, int) { return t.W, t.H }

// NumNodes returns the number of switches.
func (t refMesh) NumNodes() int { return t.W * t.H }

// Coord maps a switch id to its (x, y) coordinate.
func (t refMesh) Coord(id int) (x, y int) {
	if id < 0 || id >= t.NumNodes() {
		panic(fmt.Sprintf("noc: node id %d out of range", id))
	}
	return id % t.W, id / t.W
}

// ID maps a coordinate to a switch id. Like the torus it wraps modularly —
// it is an addressing helper used by the traffic patterns, not a statement
// about links (Neighbor is the link function, and mesh edges have none).
func (t refMesh) ID(x, y int) int {
	x = ((x % t.W) + t.W) % t.W
	y = ((y % t.H) + t.H) % t.H
	return y*t.W + x
}

// Neighbor returns the switch one hop from id through port p, and
// ok=false when the hop would cross the mesh boundary. The cmesh switch
// grid shares this implementation (refCMesh delegates to a refMesh value).
func (t refMesh) Neighbor(id int, p Port) (int, bool) {
	x, y := t.Coord(id)
	switch p {
	case East:
		if x+1 >= t.W {
			return 0, false
		}
		return y*t.W + x + 1, true
	case West:
		if x-1 < 0 {
			return 0, false
		}
		return y*t.W + x - 1, true
	case North:
		if y+1 >= t.H {
			return 0, false
		}
		return (y+1)*t.W + x, true
	case South:
		if y-1 < 0 {
			return 0, false
		}
		return (y-1)*t.W + x, true
	}
	panic("noc: invalid port")
}

// Dist returns the Manhattan distance between two switches (no wrap).
func (t refMesh) Dist(a, b int) int {
	ax, ay := t.Coord(a)
	bx, by := t.Coord(b)
	return refAbsInt(bx-ax) + refAbsInt(by-ay)
}

func refAbsInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// ProductivePorts appends to dst the ports that strictly reduce the mesh
// distance from (x, y) to (dstX, dstY). Without wrap there is never an
// equidistant direction: at most one port per axis is productive, and it
// is always a real link (it points inward).
func (t refMesh) ProductivePorts(dst []Port, x, y, dstX, dstY int) []Port {
	if dstX > x {
		dst = append(dst, East)
	} else if dstX < x {
		dst = append(dst, West)
	}
	if dstY > y {
		dst = append(dst, North)
	} else if dstY < y {
		dst = append(dst, South)
	}
	return dst
}

// XYFirstPort returns the dimension-order (X then Y) routing port towards
// (dstX, dstY), and ok=false when already there. refMesh XY routes never
// leave the grid, so the returned port is always a real link.
func (t refMesh) XYFirstPort(x, y, dstX, dstY int) (Port, bool) {
	if dstX > x {
		return East, true
	}
	if dstX < x {
		return West, true
	}
	if dstY > y {
		return North, true
	}
	if dstY < y {
		return South, true
	}
	return 0, false
}

// WrapCrossing implements Topology; a mesh has no wrap-around links, so
// the wormhole router never needs its dateline escape VC here.
func (t refMesh) WrapCrossing(x, y int, p Port) bool { return false }

// Concentration implements Topology; one endpoint per mesh switch.
func (t refMesh) Concentration() int { return 1 }

// NumEndpoints implements Topology.
func (t refMesh) NumEndpoints() int { return t.NumNodes() }

// EndpointDims implements Topology.
func (t refMesh) EndpointDims() (int, int) { return t.W, t.H }

// EndpointCoord implements Topology; endpoint space is switch space.
func (t refMesh) EndpointCoord(e int) (int, int) { return t.Coord(e) }

// EndpointID implements Topology.
func (t refMesh) EndpointID(ex, ey int) int { return t.ID(ex, ey) }

// EndpointSwitch implements Topology.
func (t refMesh) EndpointSwitch(e int) int { return e }

// SwitchOf implements Topology.
func (t refMesh) SwitchOf(ex, ey int) (int, int) { return ex, ey }

// LocalIndex implements Topology.
func (t refMesh) LocalIndex(ex, ey int) int { return 0 }

// refCMeshConcentration is the concentrated mesh's concentration factor:
// each switch serves a 2x2 tile of four endpoints through a local
// crossbar stage.
const refCMeshConcentration = 4

// refCMesh is a concentrated mesh: a W x H endpoint grid folded onto a
// (W/2) x (H/2) non-wrapping mesh of switches, each serving the 2x2
// endpoint tile above it through a local crossbar. Concentration trades
// bisection bandwidth per endpoint for a quarter of the switches and
// links — the classic area/throughput knob on the topology axis. Flit
// destination coordinates stay in the endpoint grid; SwitchOf and
// LocalIndex fold them onto the switch fabric and the crossbar slot.
type refCMesh struct {
	// W, H are the endpoint grid dimensions (both even, >= 4).
	W, H int
}

// switchGrid returns the switch fabric as the refMesh it is; every
// switch-space Topology method delegates to it, so the mesh routing
// functions have exactly one implementation.
func (t refCMesh) switchGrid() refMesh { return refMesh{W: t.W / 2, H: t.H / 2} }

// Kind implements Topology.
func (t refCMesh) Kind() TopologyKind { return TopoCMesh }

// Dims implements Topology; the switch grid, a quarter of the endpoints.
func (t refCMesh) Dims() (int, int) { return t.switchGrid().Dims() }

// NumNodes returns the number of switches.
func (t refCMesh) NumNodes() int { return t.switchGrid().NumNodes() }

// Coord maps a switch id to its (x, y) switch-grid coordinate.
func (t refCMesh) Coord(id int) (x, y int) { return t.switchGrid().Coord(id) }

// ID maps a switch coordinate to a switch id, wrapping modularly (an
// addressing helper, like refMesh.ID).
func (t refCMesh) ID(x, y int) int { return t.switchGrid().ID(x, y) }

// Neighbor returns the switch one hop through port p, and ok=false at the
// mesh boundary.
func (t refCMesh) Neighbor(id int, p Port) (int, bool) { return t.switchGrid().Neighbor(id, p) }

// Dist returns the Manhattan distance between two switches.
func (t refCMesh) Dist(a, b int) int { return t.switchGrid().Dist(a, b) }

// ProductivePorts implements Topology over the switch grid.
func (t refCMesh) ProductivePorts(dst []Port, x, y, dstX, dstY int) []Port {
	return t.switchGrid().ProductivePorts(dst, x, y, dstX, dstY)
}

// XYFirstPort implements Topology over the switch grid.
func (t refCMesh) XYFirstPort(x, y, dstX, dstY int) (Port, bool) {
	return t.switchGrid().XYFirstPort(x, y, dstX, dstY)
}

// WrapCrossing implements Topology; the cmesh switch fabric never wraps.
func (t refCMesh) WrapCrossing(x, y int, p Port) bool { return false }

// Concentration implements Topology.
func (t refCMesh) Concentration() int { return refCMeshConcentration }

// NumEndpoints implements Topology.
func (t refCMesh) NumEndpoints() int { return t.W * t.H }

// EndpointDims implements Topology.
func (t refCMesh) EndpointDims() (int, int) { return t.W, t.H }

// EndpointCoord maps an endpoint id to its endpoint-grid coordinate.
func (t refCMesh) EndpointCoord(e int) (int, int) {
	if e < 0 || e >= t.NumEndpoints() {
		panic(fmt.Sprintf("noc: endpoint id %d out of range", e))
	}
	return e % t.W, e / t.W
}

// EndpointID maps an endpoint coordinate to an endpoint id, wrapping
// modularly.
func (t refCMesh) EndpointID(ex, ey int) int {
	ex = ((ex % t.W) + t.W) % t.W
	ey = ((ey % t.H) + t.H) % t.H
	return ey*t.W + ex
}

// EndpointSwitch returns the switch serving endpoint e.
func (t refCMesh) EndpointSwitch(e int) int {
	ex, ey := t.EndpointCoord(e)
	x, y := t.SwitchOf(ex, ey)
	w, _ := t.Dims()
	return y*w + x
}

// SwitchOf folds an endpoint coordinate onto its 2x2 tile's switch.
func (t refCMesh) SwitchOf(ex, ey int) (int, int) { return ex / 2, ey / 2 }

// LocalIndex returns the endpoint's slot on its switch's crossbar: the
// position inside the 2x2 tile, row-major.
func (t refCMesh) LocalIndex(ex, ey int) int { return (ex & 1) | (ey&1)<<1 }
