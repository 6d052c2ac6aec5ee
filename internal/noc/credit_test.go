package noc

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/flit"
	"repro/internal/sim"
)

// deliveryLog is a replay node that records the cycle of every delivery
// to its endpoint, and can be checkpointed.
type deliveryLog struct {
	*replayNode
	at *[]int64
}

func (d deliveryLog) Deliver(_ flit.Flit, now int64) { *d.at = append(*d.at, now) }

// replaySnap is the checkpointed state of a deliveryLog. The node's
// clock copy is left out: nothing reads it, and a sleeping node's lags.
type replaySnap struct {
	next, delivered int
	outQ            fifoSnap
	pktID           uint64
}

func (d deliveryLog) Snapshot() any {
	return replaySnap{next: d.next, delivered: len(*d.at), outQ: d.outQ.Snapshot(), pktID: d.pktID}
}

func (d deliveryLog) Restore(snap any) {
	sn := snap.(replaySnap)
	d.next, d.pktID = sn.next, sn.pktID
	d.outQ.Restore(sn.outQ)
	*d.at = (*d.at)[:sn.delivered]
}

// replayRig builds a network of the given router kind fed by replay nodes
// that record every delivery cycle, with fast-forward on or off.
func replayRig(t *testing.T, topo Topology, kind RouterKind, events []ReplayEvent, ffwd bool) (*measureRig, *[]int64) {
	t.Helper()
	per := make([][]ReplayEvent, topo.NumEndpoints())
	for _, ev := range events {
		per[ev.Src] = append(per[ev.Src], ev)
	}
	delivered := new([]int64)
	r, err := newRig(context.Background(), topo, kind, 0, func(i int) (LocalPort, sim.Component) {
		d := deliveryLog{newReplayNode(i, topo, per[i]), delivered}
		return d, d
	})
	if err != nil {
		t.Fatal(err)
	}
	r.e.SetFastForward(ffwd)
	return r, delivered
}

// TestWormholeCreditWakesNobody sends one flit, injected on cycle 50,
// through an otherwise empty 4x4 wormhole network. A hop takes two cycles
// (buffer write, then switch traversal), so a flit of h hops exists on
// cycles 50 to 51+2h and is delivered on the last of them. Returned
// credits fold at the upstream switch's next Step and wake nobody, so
// those 2h+2 cycles are all the engine ticks: 200-(2h+2) are skipped.
// When the last hop's credit woke its upstream switch, one more cycle
// was ticked after the delivery (189 and 185 skipped).
func TestWormholeCreditWakesNobody(t *testing.T) {
	const horizon = 200
	for _, tc := range []struct {
		kind      TopologyKind
		dst       int   // endpoint id; the source is endpoint 0
		delivered int64 // 51 + 2*hops
		skipped   int64
	}{
		{TopoTorus, 10, 59, 190}, // (0,0) -> (2,2): 4 hops
		{TopoMesh, 15, 63, 186},  // (0,0) -> (3,3): 6 hops
	} {
		topo, err := NewTopologyOfKind(tc.kind, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		events := []ReplayEvent{{Cycle: 50, Src: 0, Dst: tc.dst}}
		all, allAt := replayRig(t, topo, RouterWormhole, events, false)
		woken, wokenAt := replayRig(t, topo, RouterWormhole, events, true)
		all.e.Run(horizon)
		woken.e.Run(horizon)
		if want := []int64{tc.delivered}; !slices.Equal(*allAt, want) || !slices.Equal(*wokenAt, want) {
			t.Errorf("%v: delivered on %v, always-step rig on %v, want %v", tc.kind, *wokenAt, *allAt, want)
		}
		if got := woken.e.CyclesSkipped(); got != tc.skipped {
			t.Errorf("%v: CyclesSkipped = %d, want %d", tc.kind, got, tc.skipped)
		}
	}
}

// TestWormholeSparseTickedCycles pins the ticked cycles of one short
// sparse wormhole measurement: 3642 of the 20000-cycle window. While a
// returned credit woke its upstream switch and vetoed fast-forward until
// it folded, the same run ticked 4149.
func TestWormholeSparseTickedCycles(t *testing.T) {
	topo, err := NewTopologyOfKind(TopoTorus, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	mc := MeasureConfig{Router: RouterWormhole, Traffic: TrafficConfig{Pattern: Uniform, Rate: 0.002}, Seed: 11, Warmup: 1000, Measure: 20000}
	m := mustMeasure(t, topo, mc)
	if ticked := m.Cycles - m.CyclesSkipped; ticked != 3642 || m.Delivered != 640 {
		t.Errorf("ticked %d cycles and delivered %d flits, want 3642 and 640", ticked, m.Delivered)
	}
}

// creditFabrics are FuzzWormholeCredits' fabrics: 2x2, 2x3 and 3x3 switch
// grids of every kind (a cmesh's endpoint grid is twice its switch grid).
var creditFabrics = func() []Topology {
	var topos []Topology
	for _, kind := range []TopologyKind{TopoTorus, TopoMesh, TopoCMesh} {
		tile := 1
		if kind == TopoCMesh {
			tile = 2
		}
		for _, wh := range [][2]int{{2, 2}, {2, 3}, {3, 3}} {
			topo, err := NewTopologyOfKind(kind, wh[0]*tile, wh[1]*tile)
			if err != nil {
				panic(err)
			}
			topos = append(topos, topo)
		}
	}
	return topos
}()

// checkCredits asserts the credit protocol's invariants on every link of
// a wormhole network between two cycles: every credit count lies in
// [0, WormholeVCDepth], and for each link and VC the upstream switch's
// credits, the credits it is owed, the flits in the downstream buffer and
// the flit on the link add up to exactly WormholeVCDepth.
func checkCredits(t *testing.T, n *Network, cycle int64) {
	t.Helper()
	for _, r := range n.Routers {
		d := r.(*WormholeSwitch)
		for p, u := range d.up {
			if u == nil {
				continue
			}
			out := Port(p).Opposite()
			link := d.in[p]
			if link != u.out[out] {
				t.Fatalf("cycle %d: switch %d's input %v is not switch %d's output %v", cycle, d.id, p, u.id, out)
			}
			for v := range WormholeVCs {
				c := u.credits[out][v]
				if c < 0 || c > WormholeVCDepth {
					t.Fatalf("cycle %d: switch %d holds %d credits on %v VC%d", cycle, u.id, c, out, v)
				}
				total := c + u.pending[out][v] + d.bufs[p][v].Len()
				if f := link.Read(); f != nil && int(f.Meta.VC) == v {
					total++
				}
				if total != WormholeVCDepth {
					t.Fatalf("cycle %d: link %d->%d VC%d accounts for %d slots, want %d", cycle, u.id, d.id, v, total, WormholeVCDepth)
				}
			}
		}
	}
}

// FuzzWormholeCredits is the every-cycle state check of the credit
// protocol. A sparse injection bitmap drives replay nodes on a small
// wormhole fabric: bit i injects one flit around cycle 4i, between
// endpoints drawn from the seed. An always-step rig and a wake-driven rig
// advance in lockstep, and after every cycle their complete state must be
// equal and the credits of both must pass checkCredits. A returned credit
// is folded by the upstream switch's next Step, by the next credit
// returned to it, or by Skipped when it sleeps; a fold a cycle early or
// late on either side of a comparison shows on that cycle. Every case
// ends drained.
//
//	go test ./internal/noc -run '^$' -fuzz FuzzWormholeCredits -fuzztime 10s
func FuzzWormholeCredits(f *testing.F) {
	for _, in := range []struct {
		fabric uint8
		seed   int64
		bitmap uint64
	}{
		{0, 1, 1},                      // one flit on a 2x2 torus; its last-hop credit returns just before a comparison
		{4, 3, 1 << 5},                 // one flit on a 2x3 mesh
		{5, 2, 1<<3 | 1<<40},           // two flits far apart on a 3x3 mesh
		{2, 7, 0x8000_0000_0000_0001},  // the first and last bits on a 3x3 torus
		{6, 11, 0x0101_0101_0101_0101}, // every eighth window on a 2x2 cmesh
		{8, 5, 0xf0f0},                 // two bursts on a 3x3 cmesh
		{1, -9, 0xffff_ffff_ffff_ffff}, // every window on a 2x3 torus
	} {
		f.Add(in.fabric, in.seed, in.bitmap)
	}
	f.Fuzz(func(t *testing.T, fabric uint8, seed int64, bitmap uint64) {
		topo := creditFabrics[int(fabric)%len(creditFabrics)]
		rng := sim.NewRNG(seed)
		var events []ReplayEvent
		for i := range int64(64) {
			if bitmap>>i&1 == 1 {
				n := topo.NumEndpoints()
				events = append(events, ReplayEvent{Cycle: 4*i + int64(rng.Intn(4)), Src: rng.Intn(n), Dst: rng.Intn(n)})
			}
		}
		ew, eh := topo.EndpointDims()
		name := fmt.Sprintf("%v %dx%d", topo.Kind(), ew, eh)
		all, _ := replayRig(t, topo, RouterWormhole, events, false)
		woken, _ := replayRig(t, topo, RouterWormhole, events, true)
		for range 4*64 + 64 {
			all.e.Run(1)
			woken.e.Run(1)
			cycle := all.e.Now()
			sa, err := all.e.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			sw, err := woken.e.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !sa.SameState(sw) || !reflect.DeepEqual(all.n.Stats, woken.n.Stats) {
				t.Fatalf("%s: state diverges from the always-step rig by cycle %d", name, cycle)
			}
			checkCredits(t, all.n, cycle)
			checkCredits(t, woken.n, cycle)
		}
		if got, want := woken.n.Stats.Delivered.Value(), int64(len(events)); got != want || woken.n.InFlight() != 0 {
			t.Fatalf("%s: delivered %d of %d flits, %d still in flight", name, got, want, woken.n.InFlight())
		}
	})
}
