package noc

import (
	"fmt"
	"testing"

	"repro/internal/flit"
	"repro/internal/sim"
)

// This file is the differential conformance harness: every router
// implementation runs under every traffic pattern on every topology kind
// (4x4 and 8x8 endpoint grids), and must satisfy the same conservation
// invariants every cycle — independent implementations acting as each
// other's oracle. Routers and fabrics may disagree on latency and
// throughput (that is the point of the ablations); they may never
// disagree on whether flits exist. Pattern/topology combinations that
// per-topology validation legitimately rejects are skipped (none on these
// square power-of-two grids, but the harness asks rather than assumes).
//
// Checked every cycle:
//   - conservation: injected == delivered + in flight (links + buffers)
//   - no duplication: every delivered PacketID is seen exactly once
//   - correct delivery: a flit only ejects at its addressed endpoint
//   - bounded population: in-flight flits never exceed the network's
//     physical storage (real links — mesh edges have none — plus buffer
//     capacity for buffered kinds)
//   - bufferless kinds additionally store nothing, ever
//   - the wormhole kind additionally never drives a credit negative
//   - the adaptive kind's arrival counts equal a scan of the input links
//
// After injection stops the network must drain completely: every injected
// flit delivered, nothing in flight, nothing latched in a concentrator —
// which doubles as a deadlock and livelock check for the buffered kinds
// (a deadlocked wormhole network would hold flits forever; a livelocked
// deflection network would keep them moving forever) and exercises the
// mesh corner switches, which have only two escape ports.

// checkedPort wraps a TrafficNode as the LocalPort so deliveries can be
// verified: right destination endpoint, no duplicates.
type checkedPort struct {
	t    *testing.T
	node *TrafficNode
	x, y int             // endpoint coordinates
	seen map[uint64]bool // shared across all ports of one network
}

func (c *checkedPort) TryPull() (flit.Flit, bool) { return c.node.TryPull() }

func (c *checkedPort) Deliver(f flit.Flit, now int64) {
	if int(f.DstX) != c.x || int(f.DstY) != c.y {
		c.t.Errorf("flit for (%d,%d) delivered at (%d,%d)", f.DstX, f.DstY, c.x, c.y)
	}
	if c.seen[f.Meta.PacketID] {
		c.t.Errorf("packet %#x delivered twice", f.Meta.PacketID)
	}
	c.seen[f.Meta.PacketID] = true
	c.node.Deliver(f, now)
}

// numLinks counts the directed links the fabric actually defines (the
// torus has NumNodes*NumPorts; mesh fabrics lack the boundary crossers).
func numLinks(topo Topology) int {
	links := 0
	for id := 0; id < topo.NumNodes(); id++ {
		for p := Port(0); p < NumPorts; p++ {
			if _, ok := topo.Neighbor(id, p); ok {
				links++
			}
		}
	}
	return links
}

// maxInFlight returns the network's physical storage capacity in flits:
// one per directed link, plus each switch's buffer capacity.
func maxInFlight(n *Network) int {
	links := numLinks(n.Topo)
	switch n.Kind {
	case RouterDeflection, RouterAdaptive:
		return links
	case RouterWormhole:
		perSwitch := int(NumPorts)*WormholeVCs*WormholeVCDepth + WormholeVCDepth
		return links + n.Topo.NumNodes()*perSwitch
	case RouterXY:
		return -1 // unbounded input queues: no physical bound to assert
	}
	panic("unknown kind")
}

func checkInvariants(t *testing.T, n *Network, cycle int) {
	t.Helper()
	inj, del := n.Stats.Injected.Value(), n.Stats.Delivered.Value()
	inFlight := n.InFlight()
	if inj != del+int64(inFlight) {
		t.Fatalf("cycle %d: conservation violated: injected=%d delivered=%d in-flight=%d",
			cycle, inj, del, inFlight)
	}
	if cap := maxInFlight(n); cap >= 0 && inFlight > cap {
		t.Fatalf("cycle %d: %d flits in flight exceed physical capacity %d", cycle, inFlight, cap)
	}
	if n.Kind.Bufferless() {
		if buf := n.BufferedNow(); buf != 0 {
			t.Fatalf("cycle %d: bufferless %v router stores %d flits", cycle, n.Kind, buf)
		}
	}
	if n.Kind == RouterAdaptive {
		checkArrivals(t, n, int64(cycle))
	}
	if n.Kind == RouterWormhole {
		for _, r := range n.Routers {
			if mc := r.(*WormholeSwitch).MinCredit(); mc < 0 {
				t.Fatalf("cycle %d: switch %d drove a credit negative (min %d)", cycle, r.ID(), mc)
			}
		}
	}
	// Per-switch accounting: every delivery happened at some switch's
	// ejection port or inside a crossbar (same-switch turnaround).
	var ejected int64
	for _, r := range n.Routers {
		ejected += r.EjectedCount()
	}
	if total := ejected + n.ConcentratorTurnarounds(); total != del {
		t.Fatalf("cycle %d: per-switch ejections %d + crossbar turnarounds %d != delivered %d",
			cycle, ejected, n.ConcentratorTurnarounds(), del)
	}
}

func TestRouterConformance(t *testing.T) {
	const (
		injectCycles = 300
		drainCycles  = 20000
		rate         = 0.6
	)
	for _, tk := range AllTopologies() {
		for _, dims := range [][2]int{{4, 4}, {8, 8}} {
			topo, err := NewTopologyOfKind(tk, dims[0], dims[1])
			if err != nil {
				t.Fatal(err) // both endpoint grids are valid on every kind
			}
			for _, kind := range AllRouters() {
				for _, pattern := range AllPatterns() {
					name := fmt.Sprintf("%v/%dx%d/%v/%v", tk, dims[0], dims[1], kind, pattern)
					t.Run(name, func(t *testing.T) {
						if err := ValidatePattern(pattern, topo); err != nil {
							t.Skip(err) // per-topology validation rejects this combination
						}
						e := sim.NewEngine()
						n := NewRouterNetwork(e, topo, kind)
						seen := make(map[uint64]bool)
						nodes := make([]*TrafficNode, topo.NumEndpoints())
						for i := range nodes {
							nodes[i] = NewTrafficNode(i, topo, TrafficConfig{
								Pattern: pattern, Rate: rate, HotspotNode: topo.NumEndpoints() / 2,
							}, 42+int64(i%3))
							x, y := topo.EndpointCoord(i)
							n.Attach(i, &checkedPort{t: t, node: nodes[i], x: x, y: y, seen: seen})
						}
						// Injection phase: nodes step manually so they can be
						// stopped; invariants hold on every cycle boundary.
						for c := 0; c < injectCycles; c++ {
							for _, tn := range nodes {
								tn.Step(e.Now())
							}
							e.Tick()
							checkInvariants(t, n, c)
						}
						// Drain phase: no new flits enter the source queues;
						// the switches keep pulling what is already queued and
						// the network must empty. This bounds both deadlock
						// (wormhole credits) and livelock (deflection), and on
						// concentrated topologies the crossbar latches must
						// empty too (a latched flit is still source-side).
						c := 0
						for ; c < drainCycles; c++ {
							if n.InFlight() == 0 && n.Stats.Delivered.Value() == n.Stats.Injected.Value() {
								pending := n.ConcentratorHeld()
								for _, tn := range nodes {
									pending += tn.Pending()
								}
								if pending == 0 {
									break
								}
							}
							e.Tick()
							if c%16 == 0 {
								checkInvariants(t, n, injectCycles+c)
							}
						}
						checkInvariants(t, n, injectCycles+c)
						if n.InFlight() != 0 {
							t.Fatalf("%d flits still in flight after %d drain cycles (deadlock or livelock)",
								n.InFlight(), drainCycles)
						}
						if held := n.ConcentratorHeld(); held != 0 {
							t.Fatalf("%d flits still latched in concentrators after drain", held)
						}
						if del, inj := n.Stats.Delivered.Value(), n.Stats.Injected.Value(); del != inj {
							t.Fatalf("delivered %d != injected %d after drain", del, inj)
						}
						if n.Stats.Delivered.Value() == 0 {
							t.Fatal("conformance run delivered no traffic")
						}
						if int64(len(seen)) != n.Stats.Delivered.Value() {
							t.Fatalf("recorded %d unique packets, network counted %d deliveries",
								len(seen), n.Stats.Delivered.Value())
						}
					})
				}
			}
		}
	}
}

// TestRouterDeterminism extends the determinism contract to every
// (router, topology) combination: identical configuration and seed must
// give bit-identical traffic statistics.
func TestRouterDeterminism(t *testing.T) {
	for _, tk := range AllTopologies() {
		for _, kind := range AllRouters() {
			tk, kind := tk, kind
			t.Run(fmt.Sprintf("%v/%v", tk, kind), func(t *testing.T) {
				run := func() (int64, float64, int64, int) {
					topo, err := NewTopologyOfKind(tk, 4, 4)
					if err != nil {
						t.Fatal(err)
					}
					e := sim.NewEngine()
					n := NewRouterNetwork(e, topo, kind)
					for i := 0; i < topo.NumEndpoints(); i++ {
						tn := NewTrafficNode(i, topo, TrafficConfig{Pattern: Uniform, Rate: 0.5}, 99)
						n.Attach(i, tn)
						e.Register(sim.PhaseNode, tn)
					}
					e.Run(1000)
					return n.Stats.Delivered.Value(), n.Stats.Latency.Mean(),
						n.TotalDeflections(), n.PeakBuffer()
				}
				d1, l1, f1, p1 := run()
				d2, l2, f2, p2 := run()
				if d1 != d2 || l1 != l2 || f1 != f2 || p1 != p2 {
					t.Fatalf("non-deterministic %v/%v: (%d,%v,%d,%d) vs (%d,%v,%d,%d)",
						tk, kind, d1, l1, f1, p1, d2, l2, f2, p2)
				}
			})
		}
	}
}
