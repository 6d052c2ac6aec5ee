package noc

import (
	"math/bits"
	"testing"

	"repro/internal/sim"
)

// inOccupancy counts the input links delivering a flit this cycle: the
// register scan the adaptive switch's arrival count replaces, kept as the
// count's oracle.
func (rp *routerPorts) inOccupancy() int {
	c := 0
	for p := Port(0); p < NumPorts; p++ {
		if rp.in[p] != nil && rp.in[p].Valid() {
			c++
		}
	}
	return c
}

// checkArrivals asserts that every adaptive switch's arrival count for the
// current cycle equals the scan of its input links.
func checkArrivals(t *testing.T, n *Network, cycle int64) {
	t.Helper()
	for _, r := range n.Routers {
		s := r.(*AdaptiveSwitch)
		if got, want := s.arrivals.get(s.clock.Now()), s.inOccupancy(); got != want {
			t.Fatalf("cycle %d: switch %d counts %d flits arriving, its input links hold %d", cycle, s.id, got, want)
		}
	}
}

// adaptiveFabrics are FuzzAdaptiveArrivals' fabrics: 2x2, 3x3 and 4x4
// switch grids of every kind (a cmesh's endpoint grid is twice its switch
// grid).
var adaptiveFabrics = func() []Topology {
	var topos []Topology
	for _, kind := range []TopologyKind{TopoTorus, TopoMesh, TopoCMesh} {
		tile := 1
		if kind == TopoCMesh {
			tile = 2
		}
		for side := 2; side <= 4; side++ {
			topo, err := NewTopologyOfKind(kind, side*tile, side*tile)
			if err != nil {
				panic(err)
			}
			topos = append(topos, topo)
		}
	}
	return topos
}()

// FuzzAdaptiveArrivals holds the adaptive switch's arrival count to the
// register scan it replaced. Byte c of load injects as many flits on cycle
// c as it has bits set, between endpoints drawn from the seed, into a
// wake-driven adaptive network. After every cycle each switch's count must
// equal the scan of its input links. The run is snapshotted after cycle
// snapAt (modulo its length) and, once finished, restored there and run
// again: the count must hold straight after the Restore and every cycle
// after it, and the second run must end in the same state as the first.
//
//	go test ./internal/noc -run '^$' -fuzz FuzzAdaptiveArrivals -fuzztime 10s
func FuzzAdaptiveArrivals(f *testing.F) {
	for _, in := range []struct {
		fabric uint8
		seed   int64
		load   []byte
		snapAt uint8
	}{
		{0, 1, []byte{1}, 0},                             // one flit on a 2x2 torus
		{2, 3, []byte{0xff, 0xff, 0xff, 0xff}, 3},        // a burst on a 4x4 torus, snapshot while it is in flight
		{4, 5, []byte{0x0f, 0, 0xf0, 0, 0x0f, 0}, 2},     // pulses on a 3x3 mesh
		{5, 7, []byte("every cycle something moves"), 9}, // a 4x4 mesh under steady load
		{6, 11, []byte{0x81, 0x42, 0x24, 0x18}, 1},       // a 2x2 cmesh
		{8, -2, []byte("0123456789abcdefghij"), 12},      // a 4x4 cmesh
	} {
		f.Add(in.fabric, in.seed, in.load, in.snapAt)
	}
	f.Fuzz(func(t *testing.T, fabric uint8, seed int64, load []byte, snapAt uint8) {
		topo := adaptiveFabrics[int(fabric)%len(adaptiveFabrics)]
		load = load[:min(len(load), 64)]
		rng := sim.NewRNG(seed)
		var events []ReplayEvent
		for c, b := range load {
			for range bits.OnesCount8(b) {
				n := topo.NumEndpoints()
				events = append(events, ReplayEvent{Cycle: int64(c), Src: rng.Intn(n), Dst: rng.Intn(n)})
			}
		}
		r, _ := replayRig(t, topo, RouterAdaptive, events, true)
		cycles := int64(len(load)) + 64
		at := int64(snapAt) % cycles
		var fork *sim.Snapshot
		for c := range cycles {
			r.e.Run(1)
			checkArrivals(t, r.n, c)
			if c == at {
				var err error
				if fork, err = r.e.Snapshot(); err != nil {
					t.Fatal(err)
				}
			}
		}
		first, err := r.e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := r.e.Restore(fork); err != nil {
			t.Fatal(err)
		}
		checkArrivals(t, r.n, at)
		for c := at + 1; c < cycles; c++ {
			r.e.Run(1)
			checkArrivals(t, r.n, c)
		}
		again, err := r.e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !again.SameState(first) {
			t.Fatalf("%v: the run restored to cycle %d ends in another state", topo.Kind(), at)
		}
	})
}
