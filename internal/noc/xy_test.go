package noc

import (
	"slices"
	"testing"

	"repro/internal/flit"
	"repro/internal/sim"
)

func TestXYSingleFlitDelivery(t *testing.T) {
	topo, _ := NewTopology(4, 4)
	e := sim.NewEngine()
	n := NewRouterNetwork(e, topo, RouterXY)
	cols := make([]*collector, topo.NumNodes())
	for i := range cols {
		cols[i] = &collector{}
		n.Attach(i, cols[i])
	}
	src, dst := 0, topo.ID(2, 2)
	cols[src].out = append(cols[src].out, mkFlit(topo, src, dst, 1))
	e.Run(30)
	if len(cols[dst].got) != 1 {
		t.Fatalf("destination got %d flits", len(cols[dst].got))
	}
	if n.Stats.Delivered.Value() != 1 {
		t.Error("delivery not counted")
	}
}

func TestXYAllPairs(t *testing.T) {
	// Every (src,dst) pair delivers: exercises both dimensions and wraps.
	topo, _ := NewTopology(4, 3)
	for src := 0; src < topo.NumNodes(); src++ {
		for dst := 0; dst < topo.NumNodes(); dst++ {
			if src == dst {
				continue
			}
			e := sim.NewEngine()
			n := NewRouterNetwork(e, topo, RouterXY)
			cols := make([]*collector, topo.NumNodes())
			for i := range cols {
				cols[i] = &collector{}
				n.Attach(i, cols[i])
			}
			cols[src].out = append(cols[src].out, mkFlit(topo, src, dst, 7))
			e.Run(20)
			if len(cols[dst].got) != 1 {
				t.Fatalf("src %d dst %d: not delivered", src, dst)
			}
		}
	}
}

func TestXYInOrderPerPath(t *testing.T) {
	// XY routing with FIFO queues preserves flit order between one pair.
	topo, _ := NewTopology(4, 4)
	e := sim.NewEngine()
	n := NewRouterNetwork(e, topo, RouterXY)
	cols := make([]*collector, topo.NumNodes())
	for i := range cols {
		cols[i] = &collector{}
		n.Attach(i, cols[i])
	}
	src, dst := 0, topo.ID(3, 2)
	for k := 0; k < 10; k++ {
		f := mkFlit(topo, src, dst, uint64(k))
		f.Data = uint32(k)
		cols[src].out = append(cols[src].out, f)
	}
	e.Run(60)
	if len(cols[dst].got) != 10 {
		t.Fatalf("got %d flits", len(cols[dst].got))
	}
	for k, f := range cols[dst].got {
		if f.Data != uint32(k) {
			t.Fatalf("flit %d out of order (data %d)", k, f.Data)
		}
	}
}

func TestXYConservationUnderLoad(t *testing.T) {
	topo, _ := NewTopology(4, 4)
	e := sim.NewEngine()
	n := NewRouterNetwork(e, topo, RouterXY)
	nodes := make([]*TrafficNode, topo.NumNodes())
	for i := range nodes {
		nodes[i] = NewTrafficNode(i, topo, TrafficConfig{Pattern: Transpose, Rate: 0.7}, 13)
		n.Attach(i, nodes[i])
		e.Register(sim.PhaseNode, nodes[i])
	}
	e.Run(2000)
	var sent int64
	for _, tn := range nodes {
		_ = tn
	}
	sent = n.Stats.Injected.Value()
	if sent == 0 {
		t.Fatal("no traffic")
	}
	// Drain with injection stopped (traffic nodes are components; easiest
	// is to run a long tail and require full delivery since rates pause).
	if n.PeakBuffer() == 0 {
		t.Error("buffered router should have queued something under transpose load")
	}
	if n.Stats.Delivered.Value() > sent {
		t.Error("delivered more than injected")
	}
}

func TestXYDeterminism(t *testing.T) {
	run := func() (int64, float64) {
		topo, _ := NewTopology(4, 4)
		e := sim.NewEngine()
		n := NewRouterNetwork(e, topo, RouterXY)
		for i := 0; i < topo.NumNodes(); i++ {
			tn := NewTrafficNode(i, topo, TrafficConfig{Pattern: Uniform, Rate: 0.5}, 99)
			n.Attach(i, tn)
			e.Register(sim.PhaseNode, tn)
		}
		e.Run(1000)
		return n.Stats.Delivered.Value(), n.Stats.Latency.Mean()
	}
	d1, l1 := run()
	d2, l2 := run()
	if d1 != d2 || l1 != l2 {
		t.Fatalf("non-deterministic XY network")
	}
}

func TestTrafficPatternsProduceValidDestinations(t *testing.T) {
	topo, _ := NewTopology(4, 4)
	for _, p := range []Pattern{Uniform, Transpose, Hotspot, Neighbor} {
		tn := NewTrafficNode(5, topo, TrafficConfig{Pattern: p, Rate: 1, HotspotNode: 3}, 11)
		for i := 0; i < 100; i++ {
			d := tn.destination()
			if d < 0 || d >= topo.NumNodes() {
				t.Fatalf("pattern %v produced destination %d", p, d)
			}
		}
		if p.String() == "" {
			t.Error("empty pattern name")
		}
	}
}

func TestTrafficThrottlesWhenQueueFull(t *testing.T) {
	topo, _ := NewTopology(4, 4)
	tn := NewTrafficNode(0, topo, TrafficConfig{Pattern: Hotspot, HotspotNode: 5, Rate: 1, QueueCap: 4}, 3)
	for c := int64(0); c < 100; c++ {
		tn.Step(c) // nothing ever pulls
	}
	if tn.Pending() != 4 {
		t.Errorf("queue holds %d, want cap 4", tn.Pending())
	}
	if tn.Throttled.Value() == 0 {
		t.Error("throttling not counted")
	}
}

// TestXYBypassLoserIsBuffered has two flits reach switch (2,2) on one
// cycle, each into an empty input queue, both for its North output: A
// from the West, B from the South. They compete where they arrived; the
// round-robin pointer (at West on cycle 1) gives A the port and B is
// buffered. A third flit C reaches the South input on cycle 2, behind B:
// B leaves first, C a cycle later. The watermarks are what buffering
// every arrival gives: two flits in the switch on cycles 1 and 2, and two
// in the South queue on cycle 2.
func TestXYBypassLoserIsBuffered(t *testing.T) {
	topo, _ := NewTopology(4, 4)
	e := sim.NewEngine()
	n := NewRouterNetwork(e, topo, RouterXY)
	cols := make([]*collector, topo.NumNodes())
	for i := range cols {
		cols[i] = &collector{}
		n.Attach(i, cols[i])
	}
	west, south, sw, dst := topo.ID(1, 2), topo.ID(2, 1), topo.ID(2, 2), topo.ID(2, 3)
	cols[west].out = []flit.Flit{mkFlit(topo, west, dst, 'A')}
	cols[south].out = []flit.Flit{mkFlit(topo, south, dst, 'B'), mkFlit(topo, south, dst, 'C')}
	s := n.Routers[sw].(*XYSwitch)

	e.Run(2) // cycle 0 injects A and B; cycle 1 arbitrates them at (2,2)
	if got := s.queues[South].Len(); got != 1 || s.Buffered() != 1 {
		t.Fatalf("after the contention: %d flits in the South queue, %d buffered, want the loser alone", got, s.Buffered())
	}
	if got := s.queues[West].Len(); got != 0 {
		t.Fatalf("the winner was buffered: West queue holds %d", got)
	}
	e.Run(4)
	var order []uint64
	for _, f := range cols[dst].got {
		order = append(order, f.Meta.PacketID)
	}
	if want := []uint64{'A', 'B', 'C'}; !slices.Equal(order, want) || !slices.Equal(cols[dst].when, []int64{2, 3, 4}) {
		t.Fatalf("delivered %q on cycles %v, want %q on cycles [2 3 4]", order, cols[dst].when, want)
	}
	if s.Stats.PeakQ != 2 || n.PeakBuffer() != 2 {
		t.Errorf("PeakQ %d, peak_buffer %d; want 2 and 2", s.Stats.PeakQ, n.PeakBuffer())
	}
	if s.Buffered() != 0 {
		t.Errorf("%d flits left in the switch", s.Buffered())
	}
}
