package noc

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func mustKind(t testing.TB, kind TopologyKind, w, h int) Topology {
	t.Helper()
	topo, err := NewTopologyOfKind(kind, w, h)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestTopologyBasics(t *testing.T) {
	topo, err := NewTopology(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumNodes() != 16 {
		t.Fatalf("NumNodes = %d", topo.NumNodes())
	}
	for id := 0; id < 16; id++ {
		x, y := topo.Coord(id)
		if topo.ID(x, y) != id {
			t.Errorf("Coord/ID round trip failed for %d", id)
		}
	}
}

func TestTopologyRejectsTiny(t *testing.T) {
	if _, err := NewTopology(1, 4); err == nil {
		t.Error("1-wide torus should be rejected")
	}
	if _, err := NewTopology(4, 0); err == nil {
		t.Error("0-high torus should be rejected")
	}
}

func TestNewTopologyOfKindValidation(t *testing.T) {
	cases := []struct {
		kind TopologyKind
		w, h int
		ok   bool
	}{
		{TopoTorus, 4, 4, true},
		{TopoTorus, 1, 4, false},
		{TopoMesh, 2, 2, true},
		{TopoMesh, 1, 8, false}, // degenerate line
		{TopoMesh, 8, 1, false},
		{TopoCMesh, 4, 4, true},
		{TopoCMesh, 8, 6, true},
		{TopoCMesh, 5, 4, false}, // not divisible by the 2x2 tile
		{TopoCMesh, 4, 6, true},
		{TopoCMesh, 2, 4, false}, // switch grid would be 1 wide
		{TopoCMesh, 2, 2, false},
		// A flit's DstX/DstY address 256 endpoints a side.
		{TopoTorus, 256, 2, true},
		{TopoMesh, 2, 256, true},
		{TopoCMesh, 256, 256, true},
		{TopoTorus, 2, 257, false},
		{TopoMesh, 257, 2, false},
		{TopoCMesh, 258, 4, false},
		{TopoCMesh, 4, 1024, false},
	}
	for _, c := range cases {
		topo, err := NewTopologyOfKind(c.kind, c.w, c.h)
		if c.ok && err != nil {
			t.Errorf("%v %dx%d rejected: %v", c.kind, c.w, c.h, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%v %dx%d accepted; want error", c.kind, c.w, c.h)
		}
		if err == nil && topo.Kind() != c.kind {
			t.Errorf("%v %dx%d built a %v", c.kind, c.w, c.h, topo.Kind())
		}
	}
	if _, err := NewTopologyOfKind(numTopologies, 4, 4); err == nil {
		t.Error("out-of-range kind accepted")
	}
}

func TestParseTopology(t *testing.T) {
	for _, k := range AllTopologies() {
		got, err := ParseTopology(k.String())
		if err != nil || got != k {
			t.Errorf("ParseTopology(%q) = %v, %v", k.String(), got, err)
		}
	}
	for in, want := range map[string]TopologyKind{
		"TORUS":  TopoTorus,
		" mesh ": TopoMesh,
		"0":      TopoTorus,
		"2":      TopoCMesh,
		"CMesh":  TopoCMesh,
	} {
		got, err := ParseTopology(in)
		if err != nil || got != want {
			t.Errorf("ParseTopology(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"x", "99", "-1", "", "hypercube"} {
		if _, err := ParseTopology(bad); err == nil {
			t.Errorf("ParseTopology(%q) should fail", bad)
		}
	}
	if len(TopologyNames()) != int(numTopologies) {
		t.Errorf("TopologyNames lists %d kinds, want %d", len(TopologyNames()), int(numTopologies))
	}
	if !strings.Contains(strings.Join(TopologyNames(), ","), "cmesh") {
		t.Error("TopologyNames missing cmesh")
	}
}

func TestIDWrapsAround(t *testing.T) {
	for _, topo := range []Topology{mustKind(t, TopoTorus, 4, 4), mustKind(t, TopoMesh, 4, 4)} {
		if topo.ID(-1, 0) != topo.ID(3, 0) {
			t.Errorf("%v: negative x should wrap in address space", topo.Kind())
		}
		if topo.ID(4, 5) != topo.ID(0, 1) {
			t.Errorf("%v: overflow coordinates should wrap in address space", topo.Kind())
		}
	}
}

func TestNeighborsAreSymmetric(t *testing.T) {
	topos := []Topology{mustKind(t, TopoTorus, 4, 3), mustKind(t, TopoMesh, 4, 3), mustKind(t, TopoCMesh, 8, 6)}
	for _, topo := range topos {
		for id := 0; id < topo.NumNodes(); id++ {
			for p := Port(0); p < NumPorts; p++ {
				nb, ok := topo.Neighbor(id, p)
				if !ok {
					continue
				}
				back, ok2 := topo.Neighbor(nb, p.Opposite())
				if !ok2 || back != id {
					t.Errorf("%v node %d port %v: neighbor %d does not link back (got %d, %v)",
						topo.Kind(), id, p, nb, back, ok2)
				}
			}
		}
	}
}

// TestMeshEdgeLinks pins the defining difference from the torus: boundary
// ports have no link, corners keep exactly two.
func TestMeshEdgeLinks(t *testing.T) {
	topo := mustKind(t, TopoMesh, 4, 4)
	if _, ok := topo.Neighbor(topo.ID(3, 0), East); ok {
		t.Error("east edge should have no east link")
	}
	if _, ok := topo.Neighbor(topo.ID(0, 0), West); ok {
		t.Error("west edge should have no west link")
	}
	links := func(id int) int {
		c := 0
		for p := Port(0); p < NumPorts; p++ {
			if _, ok := topo.Neighbor(id, p); ok {
				c++
			}
		}
		return c
	}
	for _, corner := range []int{topo.ID(0, 0), topo.ID(3, 0), topo.ID(0, 3), topo.ID(3, 3)} {
		if got := links(corner); got != 2 {
			t.Errorf("corner %d has %d links, want 2", corner, got)
		}
	}
	if got := links(topo.ID(1, 1)); got != 4 {
		t.Errorf("interior switch has %d links, want 4", got)
	}
	// The torus keeps all four everywhere; the cmesh switch grid behaves
	// like a mesh.
	torus := mustKind(t, TopoTorus, 4, 4)
	for id := 0; id < torus.NumNodes(); id++ {
		for p := Port(0); p < NumPorts; p++ {
			if _, ok := torus.Neighbor(id, p); !ok {
				t.Fatalf("torus node %d missing port %v", id, p)
			}
		}
	}
}

func TestDist(t *testing.T) {
	topo, _ := NewTopology(4, 4)
	cases := []struct {
		a, b, want int
	}{
		{topo.ID(0, 0), topo.ID(0, 0), 0},
		{topo.ID(0, 0), topo.ID(1, 0), 1},
		{topo.ID(0, 0), topo.ID(3, 0), 1}, // wraparound
		{topo.ID(0, 0), topo.ID(2, 2), 4}, // max distance on a 4x4 torus
		{topo.ID(1, 1), topo.ID(3, 3), 4},
	}
	for _, c := range cases {
		if got := topo.Dist(c.a, c.b); got != c.want {
			t.Errorf("Dist(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	// The mesh pays the full Manhattan distance where the torus wraps.
	mesh := mustKind(t, TopoMesh, 4, 4)
	if got := mesh.Dist(mesh.ID(0, 0), mesh.ID(3, 0)); got != 3 {
		t.Errorf("mesh Dist corner-to-corner along x = %d, want 3", got)
	}
	if got := mesh.Dist(mesh.ID(0, 0), mesh.ID(3, 3)); got != 6 {
		t.Errorf("mesh Dist corner-to-corner = %d, want 6", got)
	}
}

// TestDistSymmetricQuick property-tests distance symmetry and the triangle
// inequality over random node pairs, on every kind.
func TestDistSymmetricQuick(t *testing.T) {
	for _, topo := range []Topology{mustKind(t, TopoTorus, 5, 3), mustKind(t, TopoMesh, 5, 3), mustKind(t, TopoCMesh, 10, 6)} {
		n := topo.NumNodes()
		fn := func(a, b, c uint8) bool {
			x, y, z := int(a)%n, int(b)%n, int(c)%n
			if topo.Dist(x, y) != topo.Dist(y, x) {
				return false
			}
			return topo.Dist(x, z) <= topo.Dist(x, y)+topo.Dist(y, z)
		}
		if err := quick.Check(fn, &quick.Config{MaxCount: 2000}); err != nil {
			t.Errorf("%v: %v", topo.Kind(), err)
		}
	}
}

// TestProductivePortsReduceDistance verifies that every productive port is
// a real link that strictly reduces fabric distance and that a non-empty
// set exists whenever source != destination — on every kind.
func TestProductivePortsReduceDistance(t *testing.T) {
	for _, topo := range []Topology{mustKind(t, TopoTorus, 4, 4), mustKind(t, TopoMesh, 4, 4), mustKind(t, TopoCMesh, 8, 8)} {
		for src := 0; src < topo.NumNodes(); src++ {
			for dst := 0; dst < topo.NumNodes(); dst++ {
				if src == dst {
					continue
				}
				sx, sy := topo.Coord(src)
				dx, dy := topo.Coord(dst)
				ports := topo.ProductivePorts(nil, sx, sy, dx, dy)
				if len(ports) == 0 {
					t.Fatalf("%v: no productive port from %d to %d", topo.Kind(), src, dst)
				}
				d := topo.Dist(src, dst)
				for _, p := range ports {
					nb, ok := topo.Neighbor(src, p)
					if !ok {
						t.Fatalf("%v: productive port %v from %d is not a link", topo.Kind(), p, src)
					}
					if topo.Dist(nb, dst) != d-1 {
						t.Errorf("%v: port %v from %d to %d does not reduce distance", topo.Kind(), p, src, dst)
					}
				}
			}
		}
	}
}

// TestXYFirstPortRoute walks XY routes on every kind and checks they
// terminate at the destination within the fabric distance, never needing
// a missing link.
func TestXYFirstPortRoute(t *testing.T) {
	for _, topo := range []Topology{mustKind(t, TopoTorus, 4, 4), mustKind(t, TopoMesh, 4, 4), mustKind(t, TopoCMesh, 8, 6)} {
		for src := 0; src < topo.NumNodes(); src++ {
			for dst := 0; dst < topo.NumNodes(); dst++ {
				cur := src
				hops := 0
				for cur != dst {
					x, y := topo.Coord(cur)
					dx, dy := topo.Coord(dst)
					p, ok := topo.XYFirstPort(x, y, dx, dy)
					if !ok {
						t.Fatalf("%v: XYFirstPort said arrived but %d != %d", topo.Kind(), cur, dst)
					}
					nb, ok := topo.Neighbor(cur, p)
					if !ok {
						t.Fatalf("%v: XY route from %d used missing link %v at %d", topo.Kind(), src, p, cur)
					}
					cur = nb
					hops++
					if hops > 20 {
						t.Fatalf("%v: XY route from %d to %d does not terminate", topo.Kind(), src, dst)
					}
				}
				if hops != topo.Dist(src, dst) {
					t.Errorf("%v: XY route %d->%d took %d hops, min %d", topo.Kind(), src, dst, hops, topo.Dist(src, dst))
				}
			}
		}
	}
}

// TestWrapCrossing pins the dateline capability hook: only the torus has
// wrap-around links, exactly at its ring boundaries.
func TestWrapCrossing(t *testing.T) {
	torus := mustKind(t, TopoTorus, 4, 4)
	if !torus.WrapCrossing(3, 1, East) || !torus.WrapCrossing(0, 1, West) ||
		!torus.WrapCrossing(1, 3, North) || !torus.WrapCrossing(1, 0, South) {
		t.Error("torus boundary hops should cross the dateline")
	}
	if torus.WrapCrossing(1, 1, East) || torus.WrapCrossing(2, 2, North) {
		t.Error("torus interior hops should not cross the dateline")
	}
	for _, topo := range []Topology{mustKind(t, TopoMesh, 4, 4), mustKind(t, TopoCMesh, 8, 8)} {
		w, h := topo.Dims()
		for x := 0; x < w; x++ {
			for y := 0; y < h; y++ {
				for p := Port(0); p < NumPorts; p++ {
					if topo.WrapCrossing(x, y, p) {
						t.Fatalf("%v has no wrap links but WrapCrossing(%d,%d,%v) = true", topo.Kind(), x, y, p)
					}
				}
			}
		}
	}
}

// TestCMeshEndpointMapping pins the endpoint-space folding: a W x H
// endpoint grid over a (W/2) x (H/2) switch grid, 2x2 tiles, distinct
// crossbar slots per tile.
func TestCMeshEndpointMapping(t *testing.T) {
	topo := mustKind(t, TopoCMesh, 8, 6)
	if topo.NumEndpoints() != 48 || topo.NumNodes() != 12 {
		t.Fatalf("8x6 cmesh: %d endpoints on %d switches", topo.NumEndpoints(), topo.NumNodes())
	}
	if topo.Concentration() != 4 {
		t.Fatalf("concentration = %d", topo.Concentration())
	}
	perSwitch := make(map[int]map[int]bool)
	for e := 0; e < topo.NumEndpoints(); e++ {
		ex, ey := topo.EndpointCoord(e)
		if topo.EndpointID(ex, ey) != e {
			t.Errorf("EndpointCoord/EndpointID round trip failed for %d", e)
		}
		sw := topo.EndpointSwitch(e)
		sx, sy := topo.SwitchOf(ex, ey)
		if gotX, gotY := topo.Coord(sw); gotX != sx || gotY != sy {
			t.Errorf("endpoint %d: EndpointSwitch %d at (%d,%d) but SwitchOf says (%d,%d)",
				e, sw, gotX, gotY, sx, sy)
		}
		if ex/2 != sx || ey/2 != sy {
			t.Errorf("endpoint (%d,%d) folded to switch (%d,%d)", ex, ey, sx, sy)
		}
		slot := topo.LocalIndex(ex, ey)
		if slot < 0 || slot >= topo.Concentration() {
			t.Fatalf("LocalIndex(%d,%d) = %d out of range", ex, ey, slot)
		}
		if perSwitch[sw] == nil {
			perSwitch[sw] = map[int]bool{}
		}
		if perSwitch[sw][slot] {
			t.Errorf("switch %d slot %d claimed by two endpoints", sw, slot)
		}
		perSwitch[sw][slot] = true
	}
	for sw, slots := range perSwitch {
		if len(slots) != 4 {
			t.Errorf("switch %d serves %d endpoints, want %d", sw, len(slots), 4)
		}
	}
	// Torus and mesh keep endpoint space == switch space.
	for _, flat := range []Topology{mustKind(t, TopoTorus, 4, 4), mustKind(t, TopoMesh, 4, 4)} {
		if flat.Concentration() != 1 || flat.NumEndpoints() != flat.NumNodes() {
			t.Errorf("%v: unexpected concentration", flat.Kind())
		}
		for e := 0; e < flat.NumEndpoints(); e++ {
			ex, ey := flat.EndpointCoord(e)
			if sx, sy := flat.SwitchOf(ex, ey); sx != ex || sy != ey {
				t.Errorf("%v: SwitchOf not identity for endpoint %d", flat.Kind(), e)
			}
			if flat.EndpointSwitch(e) != e || flat.LocalIndex(ex, ey) != 0 {
				t.Errorf("%v: endpoint %d not its own switch", flat.Kind(), e)
			}
		}
	}
}

func TestPortStringsAndOpposite(t *testing.T) {
	for p := Port(0); p < NumPorts; p++ {
		if p.String() == "" {
			t.Error("empty port name")
		}
		if p.Opposite().Opposite() != p {
			t.Errorf("Opposite not involutive for %v", p)
		}
	}
}

// TestTopologyMatchesReference holds every Topology method to the
// per-fabric types it replaced (topology_ref_test.go) on every kind and
// every w, h in 2..9 that builds: on every switch, switch pair, port and
// endpoint, and for ID/EndpointID on every coordinate up to one grid out
// of range in each direction.
func TestTopologyMatchesReference(t *testing.T) {
	for _, kind := range AllTopologies() {
		for w := 2; w <= 9; w++ {
			for h := 2; h <= 9; h++ {
				topo, err := NewTopologyOfKind(kind, w, h)
				if err != nil {
					continue
				}
				c := refCheck{t, topo, refOf(kind, w, h)}
				c.shape()
				for a := 0; a < topo.NumNodes(); a++ {
					c.switchAt(a)
					for b := 0; b < topo.NumNodes(); b++ {
						c.routes(a, b)
					}
				}
				for e := 0; e < topo.NumEndpoints(); e++ {
					c.endpoint(e)
				}
				ew, eh := topo.EndpointDims()
				for x := -ew; x < 2*ew; x++ {
					for y := -eh; y < 2*eh; y++ {
						c.address(x, y)
					}
				}
			}
		}
	}
}

// FuzzTopology widens TestTopologyMatchesReference to every grid a flit
// can address (up to 256 a side): a fuzzed kind and w x h endpoint grid,
// one switch pair, one endpoint and one coordinate pair for ID/EndpointID.
func FuzzTopology(f *testing.F) {
	f.Add(uint8(0), uint8(3), uint8(3), uint16(0), uint16(10), uint16(7), int16(-4), int16(9))
	f.Add(uint8(1), uint8(255), uint8(1), uint16(511), uint16(0), uint16(300), int16(256), int16(-1))
	f.Add(uint8(2), uint8(7), uint8(5), uint16(3), uint16(11), uint16(47), int16(-8), int16(6))
	f.Add(uint8(2), uint8(255), uint8(255), uint16(65535), uint16(1), uint16(65535), int16(32767), int16(-32768))
	f.Fuzz(func(t *testing.T, kind, w1, h1 uint8, a, b, e uint16, x, y int16) {
		k := TopologyKind(kind % uint8(numTopologies))
		w, h := int(w1)+1, int(h1)+1
		topo, err := NewTopologyOfKind(k, w, h)
		if err != nil {
			return
		}
		c := refCheck{t, topo, refOf(k, w, h)}
		c.shape()
		sa, sb := int(a)%topo.NumNodes(), int(b)%topo.NumNodes()
		c.switchAt(sa)
		c.routes(sa, sb)
		c.endpoint(int(e) % topo.NumEndpoints())
		c.address(int(x), int(y))
	})
}

// refOf returns the reference type of a kind over a w x h endpoint grid.
func refOf(kind TopologyKind, w, h int) refTopology {
	switch kind {
	case TopoTorus:
		return refTorus{W: w, H: h}
	case TopoMesh:
		return refMesh{W: w, H: h}
	}
	return refCMesh{W: w, H: h}
}

// refCheck compares a Topology with its reference type method by method.
type refCheck struct {
	t    testing.TB
	topo Topology
	ref  refTopology
}

func (c refCheck) eq(got, want any, format string, args ...any) {
	c.t.Helper()
	if !reflect.DeepEqual(got, want) {
		ew, eh := c.topo.EndpointDims()
		c.t.Fatalf("%dx%d %v: %s = %v, reference %v", ew, eh, c.topo.Kind(), fmt.Sprintf(format, args...), got, want)
	}
}

func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

// shape compares the grid-wide answers, and which out-of-range ids and
// ports panic.
func (c refCheck) shape() {
	c.t.Helper()
	topo, ref := c.topo, c.ref
	c.eq(topo.Kind(), ref.Kind(), "Kind")
	c.eq(pair(topo.Dims()), pair(ref.Dims()), "Dims")
	c.eq(topo.NumNodes(), ref.NumNodes(), "NumNodes")
	c.eq(topo.Concentration(), ref.Concentration(), "Concentration")
	c.eq(topo.NumEndpoints(), ref.NumEndpoints(), "NumEndpoints")
	c.eq(pair(topo.EndpointDims()), pair(ref.EndpointDims()), "EndpointDims")
	for _, id := range []int{-1, topo.NumNodes()} {
		c.eq(panics(func() { topo.Coord(id) }), panics(func() { ref.Coord(id) }), "Coord(%d) panics", id)
	}
	for _, e := range []int{-1, topo.NumEndpoints()} {
		c.eq(panics(func() { topo.EndpointCoord(e) }), panics(func() { ref.EndpointCoord(e) }), "EndpointCoord(%d) panics", e)
	}
	c.eq(panics(func() { topo.Neighbor(0, NumPorts) }), panics(func() { ref.Neighbor(0, NumPorts) }), "Neighbor(0, %v) panics", NumPorts)
}

// switchAt compares one switch's coordinate, links and wrap crossings.
func (c refCheck) switchAt(id int) {
	c.t.Helper()
	x, y := c.topo.Coord(id)
	c.eq(pair(x, y), pair(c.ref.Coord(id)), "Coord(%d)", id)
	for p := Port(0); p <= NumPorts; p++ {
		if p < NumPorts {
			nb, ok := c.topo.Neighbor(id, p)
			rnb, rok := c.ref.Neighbor(id, p)
			c.eq([2]any{nb, ok}, [2]any{rnb, rok}, "Neighbor(%d, %v)", id, p)
		}
		c.eq(c.topo.WrapCrossing(x, y, p), c.ref.WrapCrossing(x, y, p), "WrapCrossing(%d, %d, %v)", x, y, p)
	}
}

// routes compares the routing answers between two switches.
func (c refCheck) routes(a, b int) {
	c.t.Helper()
	x, y := c.topo.Coord(a)
	dx, dy := c.topo.Coord(b)
	c.eq(c.topo.Dist(a, b), c.ref.Dist(a, b), "Dist(%d, %d)", a, b)
	c.eq(c.topo.ProductivePorts(nil, x, y, dx, dy), c.ref.ProductivePorts(nil, x, y, dx, dy), "ProductivePorts(%d, %d, %d, %d)", x, y, dx, dy)
	p, ok := c.topo.XYFirstPort(x, y, dx, dy)
	rp, rok := c.ref.XYFirstPort(x, y, dx, dy)
	c.eq([2]any{p, ok}, [2]any{rp, rok}, "XYFirstPort(%d, %d, %d, %d)", x, y, dx, dy)
}

// endpoint compares one endpoint's coordinate, switch and crossbar slot.
func (c refCheck) endpoint(e int) {
	c.t.Helper()
	ex, ey := c.topo.EndpointCoord(e)
	c.eq(pair(ex, ey), pair(c.ref.EndpointCoord(e)), "EndpointCoord(%d)", e)
	c.eq(c.topo.EndpointSwitch(e), c.ref.EndpointSwitch(e), "EndpointSwitch(%d)", e)
	c.eq(pair(c.topo.SwitchOf(ex, ey)), pair(c.ref.SwitchOf(ex, ey)), "SwitchOf(%d, %d)", ex, ey)
	c.eq(c.topo.LocalIndex(ex, ey), c.ref.LocalIndex(ex, ey), "LocalIndex(%d, %d)", ex, ey)
}

// address compares the wrapping address helpers at any coordinate.
func (c refCheck) address(x, y int) {
	c.t.Helper()
	c.eq(c.topo.ID(x, y), c.ref.ID(x, y), "ID(%d, %d)", x, y)
	c.eq(c.topo.EndpointID(x, y), c.ref.EndpointID(x, y), "EndpointID(%d, %d)", x, y)
}

func pair(a, b int) [2]int { return [2]int{a, b} }
