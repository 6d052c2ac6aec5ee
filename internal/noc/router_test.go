package noc

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/flit"
	"repro/internal/sim"
)

func TestParseRouterRoundTrip(t *testing.T) {
	for _, k := range AllRouters() {
		got, err := ParseRouter(k.String())
		if err != nil || got != k {
			t.Errorf("ParseRouter(%q) = %v, %v", k.String(), got, err)
		}
		// Numeric, case and separator variants.
		if got, err := ParseRouter("  " + strings.ToUpper(k.String()) + " "); err != nil || got != k {
			t.Errorf("ParseRouter upper(%q) = %v, %v", k, got, err)
		}
	}
	if got, err := ParseRouter("1"); err != nil || got != RouterXY {
		t.Errorf("ParseRouter(1) = %v, %v", got, err)
	}
	for _, bad := range []string{"", "nope", "-1", "99", "deflectionn"} {
		if _, err := ParseRouter(bad); err == nil {
			t.Errorf("ParseRouter(%q) accepted", bad)
		}
	}
}

func TestRouterNamesAndClasses(t *testing.T) {
	names := RouterNames()
	if len(names) != len(AllRouters()) || len(names) != 4 {
		t.Fatalf("have %d router names, want 4", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if n == "" || strings.Contains(n, "router(") {
			t.Errorf("bad router name %q", n)
		}
		if seen[n] {
			t.Errorf("duplicate router name %q", n)
		}
		seen[n] = true
	}
	if !RouterDeflection.Bufferless() || !RouterAdaptive.Bufferless() {
		t.Error("deflection-class routers must be bufferless")
	}
	if RouterXY.Bufferless() || RouterWormhole.Bufferless() {
		t.Error("buffered routers misreported as bufferless")
	}
}

// buildKindNet mirrors buildNet for an arbitrary router kind.
func buildKindNet(t *testing.T, kind RouterKind, w, h int) (*sim.Engine, *Network, []*collector) {
	t.Helper()
	topo, err := NewTopology(w, h)
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	n := NewRouterNetwork(e, topo, kind)
	cols := make([]*collector, topo.NumNodes())
	for i := range cols {
		cols[i] = &collector{}
		n.Attach(i, cols[i])
	}
	return e, n, cols
}

// TestAllRoutersDeliverAllPairs checks minimal functionality on every kind
// and several topologies: one flit between every (src, dst) pair arrives.
func TestAllRoutersDeliverAllPairs(t *testing.T) {
	for _, kind := range AllRouters() {
		for _, dims := range [][2]int{{4, 4}, {4, 3}, {2, 2}, {5, 3}} {
			e, n, cols := buildKindNet(t, kind, dims[0], dims[1])
			pkt := uint64(0)
			for src := 0; src < n.Topo.NumNodes(); src++ {
				for dst := 0; dst < n.Topo.NumNodes(); dst++ {
					if src == dst {
						continue
					}
					pkt++
					cols[src].out = append(cols[src].out, mkFlit(n.Topo, src, dst, pkt))
				}
			}
			e.Run(int64(2000))
			total := 0
			for _, c := range cols {
				total += len(c.got)
			}
			if total != int(pkt) {
				t.Errorf("%v on %dx%d: delivered %d of %d flits",
					kind, dims[0], dims[1], total, pkt)
			}
		}
	}
}

// TestWormholeInOrderPerPath pins the FIFO property buffered routing
// guarantees and deflection deliberately gives up: flits between one
// (src, dst) pair arrive in injection order.
func TestWormholeInOrderPerPath(t *testing.T) {
	e, n, cols := buildKindNet(t, RouterWormhole, 4, 4)
	src, dst := 0, n.Topo.ID(3, 2)
	for k := 0; k < 10; k++ {
		f := mkFlit(n.Topo, src, dst, uint64(k+1))
		f.Data = uint32(k)
		cols[src].out = append(cols[src].out, f)
	}
	e.Run(100)
	if len(cols[dst].got) != 10 {
		t.Fatalf("got %d flits", len(cols[dst].got))
	}
	for k, f := range cols[dst].got {
		if f.Data != uint32(k) {
			t.Fatalf("flit %d out of order (data %d)", k, f.Data)
		}
	}
}

// TestWormholeZeroLoadLatencyPaysPipeline pins the buffered-pipeline cost:
// an unloaded wormhole hop costs two cycles (link + buffer) against the
// deflection switch's one, so the same route takes roughly twice as long.
func TestWormholeZeroLoadLatency(t *testing.T) {
	topo, _ := NewTopology(4, 4)
	src, dst := 0, topo.ID(2, 1) // 3 hops
	lat := func(kind RouterKind) int64 {
		e, n, cols := buildKindNet(t, kind, 4, 4)
		_ = n
		cols[src].out = append(cols[src].out, mkFlit(topo, src, dst, 1))
		e.Run(40)
		if len(cols[dst].got) != 1 {
			t.Fatalf("%v: not delivered", kind)
		}
		return cols[dst].when[0]
	}
	defl, wh := lat(RouterDeflection), lat(RouterWormhole)
	if wh <= defl {
		t.Errorf("wormhole delivery cycle %d not later than deflection %d (pipeline cost missing)", wh, defl)
	}
	if wh > 3*defl+4 {
		t.Errorf("wormhole delivery cycle %d implausibly late vs deflection %d", wh, defl)
	}
}

// TestAdaptiveSingleFlitMinimalPath: with no contention the adaptive
// router must still route minimally (congestion-aware choice never picks
// an unproductive port when a productive one is free).
func TestAdaptiveSingleFlitMinimalPath(t *testing.T) {
	e, n, cols := buildKindNet(t, RouterAdaptive, 4, 4)
	src, dst := n.Topo.ID(0, 0), n.Topo.ID(2, 1)
	cols[src].out = append(cols[src].out, mkFlit(n.Topo, src, dst, 1))
	e.Run(20)
	if len(cols[dst].got) != 1 {
		t.Fatal("not delivered")
	}
	got := cols[dst].got[0]
	if int(got.Meta.Hops) != n.Topo.Dist(src, dst) {
		t.Errorf("hops = %d, want minimal %d", got.Meta.Hops, n.Topo.Dist(src, dst))
	}
	if got.Meta.Deflections != 0 {
		t.Errorf("unloaded adaptive network deflected %d times", got.Meta.Deflections)
	}
}

// TestAdaptiveSpreadsContention: under a skewed stream the adaptive
// router's congestion-aware port choice must deflect no more than the
// baseline deflection router (on transpose it deflects measurably less;
// asserting <= keeps the test robust).
func TestAdaptiveSpreadsContention(t *testing.T) {
	run := func(kind RouterKind) int64 {
		topo, _ := NewTopology(4, 4)
		e := sim.NewEngine()
		n := NewRouterNetwork(e, topo, kind)
		for i := 0; i < topo.NumNodes(); i++ {
			tn := NewTrafficNode(i, topo, TrafficConfig{Pattern: Transpose, Rate: 0.4}, 7)
			n.Attach(i, tn)
			e.Register(sim.PhaseNode, tn)
		}
		e.Run(3000)
		return n.TotalDeflections()
	}
	defl, adpt := run(RouterDeflection), run(RouterAdaptive)
	if adpt > defl {
		t.Errorf("adaptive deflected %d times, baseline deflection %d; congestion-aware choice should not deflect more", adpt, defl)
	}
}

// TestWormholeCreditsBounded drives the wormhole network to saturation
// and verifies credits stay within [0, depth] on every switch.
func TestWormholeCreditsBounded(t *testing.T) {
	topo, _ := NewTopology(4, 4)
	e := sim.NewEngine()
	n := NewRouterNetwork(e, topo, RouterWormhole)
	for i := 0; i < topo.NumNodes(); i++ {
		tn := NewTrafficNode(i, topo, TrafficConfig{Pattern: Uniform, Rate: 1.0}, 11)
		n.Attach(i, tn)
		e.Register(sim.PhaseNode, tn)
	}
	e.Run(2000) // credit under/overflow would panic inside the switch
	for _, r := range n.Routers {
		sw := r.(*WormholeSwitch)
		if sw.MinCredit() < 0 {
			t.Fatalf("switch %d: min credit %d went negative", sw.ID(), sw.MinCredit())
		}
	}
	if n.Stats.Delivered.Value() == 0 {
		t.Fatal("saturated wormhole network delivered nothing")
	}
}

// TestRouteTableMatchesTopology checks every entry of every switch's route
// table against the Topology method it was read from: the table is a
// cache of the fabric's answers, never a second definition of routing. The
// 5x3 torus has odd rings (no half-way tie on X, none on Y); the 4x4 has
// both directions productive at distance 2.
func TestRouteTableMatchesTopology(t *testing.T) {
	fabrics := []struct {
		kind TopologyKind
		w, h int
	}{{TopoTorus, 4, 4}, {TopoTorus, 5, 3}, {TopoMesh, 4, 4}, {TopoMesh, 5, 3}, {TopoCMesh, 4, 4}, {TopoCMesh, 6, 4}}
	for _, fab := range fabrics {
		topo, err := NewTopologyOfKind(fab.kind, fab.w, fab.h)
		if err != nil {
			t.Fatal(err)
		}
		n := NewRouterNetwork(sim.NewEngine(), topo, RouterDeflection)
		for id, r := range n.Routers {
			rp := r.wiring()
			x, y := topo.Coord(id)
			for e := 0; e < topo.NumEndpoints(); e++ {
				ex, ey := topo.EndpointCoord(e)
				dx, dy := topo.SwitchOf(ex, ey)
				f := flit.Flit{DstX: uint8(ex), DstY: uint8(ey)}
				rt := rp.route(&f)
				if want := topo.EndpointSwitch(e) == id; rt.eject != want {
					t.Errorf("%v %dx%d switch %d endpoint %d: eject = %v, want %v", fab.kind, fab.w, fab.h, id, e, rt.eject, want)
				}
				want := topo.ProductivePorts(nil, x, y, dx, dy)
				if got := rt.productive(); !slices.Equal(got, want) {
					t.Errorf("%v %dx%d switch %d endpoint %d: productive = %v, want %v", fab.kind, fab.w, fab.h, id, e, got, want)
				}
				// The deflector's first-free pick over the mask is the old
				// first-free pick over the list only if the list ascends.
				if got := maskPorts(rt.prodMask); !slices.Equal(got, want) {
					t.Errorf("%v %dx%d switch %d endpoint %d: prodMask ports = %v, want %v in that order", fab.kind, fab.w, fab.h, id, e, got, want)
				}
				if want, ok := topo.XYFirstPort(x, y, dx, dy); ok == rt.eject || (ok && rt.xy != want) {
					t.Errorf("%v %dx%d switch %d endpoint %d: xy = %v (eject %v), want %v, %v", fab.kind, fab.w, fab.h, id, e, rt.xy, rt.eject, want, ok)
				}
			}
			var ports []Port
			for p := Port(0); p < NumPorts; p++ {
				_, linked := topo.Neighbor(id, p)
				if linked {
					ports = append(ports, p)
				}
				if want := linked && topo.WrapCrossing(x, y, p); rp.wrap[p] != want {
					t.Errorf("%v %dx%d switch %d port %v: wrap = %v, want %v", fab.kind, fab.w, fab.h, id, p, rp.wrap[p], want)
				}
				if (rp.out[p] != nil) != linked {
					t.Errorf("%v %dx%d switch %d port %v: register and link disagree", fab.kind, fab.w, fab.h, id, p)
				}
			}
			if !slices.Equal(rp.ports, ports) {
				t.Errorf("%v %dx%d switch %d: ports = %v, want %v", fab.kind, fab.w, fab.h, id, rp.ports, ports)
			}
			if got := maskPorts(rp.linkMask); !slices.Equal(got, ports) {
				t.Errorf("%v %dx%d switch %d: linkMask ports = %v, want %v", fab.kind, fab.w, fab.h, id, got, ports)
			}
		}
	}
}

// maskPorts lists the ports set in a port mask, ascending.
func maskPorts(m uint8) []Port {
	var ports []Port
	for p := Port(0); p < 8; p++ {
		if m&(1<<p) != 0 {
			ports = append(ports, p)
		}
	}
	return ports
}

// Flits of equal age leave in arrival-port order: the arbitration's last
// tie-break, which the stable sort over arrival order provides.
func TestDeflectionTieBreakIsArrivalPort(t *testing.T) {
	topo, _ := NewTopology(4, 4)
	e := sim.NewEngine()
	n := NewRouterNetwork(e, topo, RouterDeflection)
	mid := n.Routers[topo.ID(1, 1)].wiring()
	// Two flits identical in age, both wanting East only, arrive from the
	// West and the South inputs; West is the lower port and must win.
	f := flit.Flit{DstX: 2, DstY: 1}
	fromWest, fromSouth := f, f
	fromWest.Data, fromSouth.Data = 1, 2
	mid.in[West].Set(fromWest)
	mid.in[South].Set(fromSouth)
	e.Tick()
	e.Tick()
	if got, ok := mid.out[East].Get(); !ok || got.Data != 1 || got.Meta.Deflections != 0 {
		t.Errorf("East carries %+v, %v; want the flit that arrived on the lower port, undeflected", got, ok)
	}
}
