package noc

import (
	"testing"

	"repro/internal/bridge"
	"repro/internal/flit"
	"repro/internal/memory"
	"repro/internal/mpmmu"
	"repro/internal/noc/noctest"
	"repro/internal/queue"
	"repro/internal/sim"
)

// portCase is one LocalPort implementation loaded with flits to hand over:
// want are their payloads in handoff order, state what Front must not
// move, and after (if set) checks what the case's Drops must have done.
type portCase struct {
	name  string
	port  noctest.Port
	want  []uint32
	state func() any
	after func(t *testing.T)
}

// TestLocalPortContract checks the in-place handoff on every LocalPort
// implementation: the network's endpoints, its null port, the cmesh
// crossbar, the compute node's arbiter in all three modes and the memory
// node. internal/core checks its node interface the same way.
func TestLocalPortContract(t *testing.T) {
	topo, _ := NewTopology(4, 4)
	cases := []func(t *testing.T) portCase{
		func(t *testing.T) portCase {
			tn := NewTrafficNode(0, topo, TrafficConfig{Pattern: Uniform}, 1)
			tn.emit(3, flit.SubMsgData, 0x11, 7)
			tn.emit(5, flit.SubMsgData, 0x12, 7)
			return portCase{name: "traffic", port: tn, want: []uint32{0x11, 0x12}, state: func() any { return *tn }}
		},
		func(t *testing.T) portCase {
			r := newReplayNode(2, topo, nil)
			r.emit(3, flit.SubMsgReq, 0x21, 7)
			r.emit(4, flit.SubMsgData, 0x22, 8)
			return portCase{name: "replay", port: r, want: []uint32{0x21, 0x22}, state: func() any { return *r }}
		},
		func(t *testing.T) portCase {
			board := newSvcBoard()
			cfg := ServiceMeasureConfig{Servers: 1, ArrivalRate: 1, ResponseFlits: 1, QueueCap: 4, Seed: 1}
			c := newSvcClient(0, topo, cfg, board)
			c.Step(3)
			c.Step(4) // one request a cycle, ids 1 and 2
			stamps := func() [2]int64 { return [2]int64{board.pending[1].inject, board.pending[2].inject} }
			return portCase{
				name: "service client", port: c, want: []uint32{1, 2},
				state: func() any { return []any{*c, stamps()} },
				after: func(t *testing.T) {
					if got := stamps(); got != [2]int64{4, 4} {
						t.Errorf("inject stamps %v after both Drops on cycle 4, want [4 4]", got)
					}
				},
			}
		},
		func(t *testing.T) portCase {
			board := newSvcBoard()
			cfg := ServiceMeasureConfig{Servers: 1, ResponseFlits: 2}
			s := newSvcServer(15, topo, cfg, board)
			board.pending[7] = &svcRequest{inject: 0, arrive: -1, respInject: -1, done: -1}
			s.Deliver(&flit.Flit{Data: 7}, 1)
			s.Step(1) // accepts request 7
			s.Step(2) // answers it with two flits
			return portCase{name: "service server", port: s, want: []uint32{7, 7}, state: func() any { return *s }}
		},
		func(t *testing.T) portCase {
			n := &nullPort{}
			return portCase{name: "null", port: n, state: func() any { return *n }}
		},
		func(t *testing.T) portCase {
			cm, _ := NewTopologyOfKind(TopoCMesh, 4, 4)
			net := NewRouterNetwork(sim.NewEngine(), cm, RouterDeflection)
			tn := NewTrafficNode(0, cm, TrafficConfig{Pattern: Uniform}, 1)
			net.Attach(0, tn)
			tn.emit(cm.NumEndpoints()-1, flit.SubMsgData, 0x31, 1)
			tn.emit(cm.NumEndpoints()-2, flit.SubMsgData, 0x32, 1)
			c := net.conc[cm.EndpointSwitch(0)]
			c.Step(1) // latches 0x31; 0x32 waits for the latch to be released
			state := func() any { return []any{c.rr, c.hasLatch, c.latch, c.turnarounds, tn.Pending()} }
			return portCase{
				name: "crossbar", port: c, want: []uint32{0x31}, state: state,
				after: func(t *testing.T) {
					c.Step(2)
					noctest.CheckHandoff(t, c, []uint32{0x32}, state)
				},
			}
		},
		func(t *testing.T) portCase {
			ddr := memory.NewDDR(memory.DefaultLatency)
			for i := uint32(0); i < 4; i++ {
				ddr.WriteWord(0x2000+4*i, 0x40+i)
			}
			u, err := mpmmu.New(mpmmu.DefaultConfig(0, 4), ddr, func(n int) (int, int) { return n % 4, n / 4 })
			if err != nil {
				t.Fatal(err)
			}
			u.Deliver(&flit.Flit{Type: flit.BlockRead, Sub: flit.SubAddr, Src: 1, Data: 0x2000}, 0)
			for now := int64(0); u.Pending() < 4; now++ {
				if now > 1000 {
					t.Fatal("no block read reply within 1000 cycles")
				}
				u.Step(now)
			}
			return portCase{
				name: "memory node", port: u, want: []uint32{0x40, 0x41, 0x42, 0x43},
				state: func() any { return []any{u.Stats, u.Pending()} },
			}
		},
	}
	for _, mode := range []bridge.ArbiterMode{bridge.ArbMux, bridge.ArbSingleFIFO, bridge.ArbDualFIFO} {
		cases = append(cases, func(t *testing.T) portCase {
			return arbiterCase(mode)
		})
	}
	for _, mk := range cases {
		c := mk(t)
		t.Run(c.name, func(t *testing.T) {
			noctest.CheckHandoff(t, c.port, c.want, c.state)
			if c.after != nil {
				c.after(t)
			}
		})
	}
}

// arbiterCase loads an arbiter with two message flits from the TIE port
// and two shared-memory flits from the bridge and stages them all. The
// multiplexer and the single FIFO alternate between the two interfaces,
// TIE first; the dual FIFO drains the TIE's high-priority queue first.
func arbiterCase(mode bridge.ArbiterMode) portCase {
	tie, brg := queue.NewFIFO[flit.Flit](8), queue.NewFIFO[flit.Flit](8)
	tie.Push(flit.Flit{Type: flit.Message, Data: 0x51})
	tie.Push(flit.Flit{Type: flit.Message, Data: 0x52})
	brg.Push(flit.Flit{Type: flit.SingleRead, Data: 0x61})
	brg.Push(flit.Flit{Type: flit.SingleRead, Data: 0x62})
	a := bridge.NewArbiter("arb", mode, tie, brg, 8)
	for c := int64(0); c < 4; c++ {
		a.Step(c)
	}
	want := []uint32{0x51, 0x61, 0x52, 0x62}
	if mode == bridge.ArbDualFIFO {
		want = []uint32{0x51, 0x52, 0x61, 0x62}
	}
	return portCase{
		name: "arbiter " + mode.String(), port: a, want: want,
		// A copy of the arbiter holds its turn and its source counts.
		state: func() any { return *a },
		after: func(t *testing.T) {
			if got := a.Stats.FromTIE.Value() + a.Stats.FromBridge.Value(); got != 4 {
				t.Errorf("arbiter counted %d handoffs, want 4", got)
			}
			if a.Stats.FromTIE.Value() != 2 {
				t.Errorf("arbiter counted %d handoffs from the TIE port, want 2", a.Stats.FromTIE.Value())
			}
		},
	}
}
