package bridge

import (
	"testing"

	"repro/internal/flit"
	"repro/internal/queue"
)

func mkQueues() (*queue.FIFO[flit.Flit], *queue.FIFO[flit.Flit]) {
	return queue.NewFIFO[flit.Flit](8), queue.NewFIFO[flit.Flit](8)
}

// pull is one handoff to the switch: the arbiter's Front, copied, then
// dropped.
func pull(a *Arbiter) (flit.Flit, bool) {
	f := a.Front()
	if f == nil {
		return flit.Flit{}, false
	}
	g := *f
	a.Drop()
	return g, true
}

func msgFlit(data uint32) flit.Flit {
	return flit.Flit{Type: flit.Message, Sub: flit.SubMsgData, Data: data}
}

func smFlit(data uint32) flit.Flit {
	return flit.Flit{Type: flit.SingleRead, Sub: flit.SubAddr, Data: data}
}

func TestMuxRoundRobin(t *testing.T) {
	tieQ, brgQ := mkQueues()
	a := NewArbiter("a", ArbMux, tieQ, brgQ, 8)
	for i := 0; i < 3; i++ {
		tieQ.Push(msgFlit(uint32(100 + i)))
		brgQ.Push(smFlit(uint32(200 + i)))
	}
	var got []uint32
	for {
		a.Step(0)
		f, ok := pull(a)
		if !ok {
			break
		}
		got = append(got, f.Data)
	}
	want := []uint32{100, 200, 101, 201, 102, 202}
	if len(got) != len(want) {
		t.Fatalf("pulled %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round robin order %v, want %v", got, want)
		}
	}
	if a.Stats.FromTIE.Value() != 3 || a.Stats.FromBridge.Value() != 3 {
		t.Error("arbitration stats wrong")
	}
}

func TestMuxFallsThroughToOtherSource(t *testing.T) {
	tieQ, brgQ := mkQueues()
	a := NewArbiter("a", ArbMux, tieQ, brgQ, 8)
	brgQ.Push(smFlit(1))
	brgQ.Push(smFlit(2))
	// TIE queue empty: both pulls must come from the bridge.
	if f, ok := pull(a); !ok || f.Data != 1 {
		t.Fatal("first pull failed")
	}
	if f, ok := pull(a); !ok || f.Data != 2 {
		t.Fatal("second pull failed")
	}
}

func TestSingleFIFOStagesOnePerCycle(t *testing.T) {
	tieQ, brgQ := mkQueues()
	a := NewArbiter("a", ArbSingleFIFO, tieQ, brgQ, 8)
	tieQ.Push(msgFlit(1))
	brgQ.Push(smFlit(2))
	a.Step(0)
	// Only one flit may be staged per cycle.
	if f, ok := pull(a); !ok || f.Data != 1 {
		t.Fatalf("cycle 0: want TIE flit first (round robin starts at TIE)")
	}
	if _, ok := pull(a); ok {
		t.Fatal("second flit staged in the same cycle")
	}
	a.Step(1)
	if f, ok := pull(a); !ok || f.Data != 2 {
		t.Fatal("cycle 1: bridge flit not staged")
	}
}

func TestDualFIFOPriority(t *testing.T) {
	tieQ, brgQ := mkQueues()
	a := NewArbiter("a", ArbDualFIFO, tieQ, brgQ, 8)
	// Stage a bridge flit first, then a TIE flit: the TIE (high-priority)
	// flit must still win the pull.
	brgQ.Push(smFlit(2))
	a.Step(0)
	tieQ.Push(msgFlit(1))
	a.Step(1)
	f, ok := pull(a)
	if !ok || f.Type != flit.Message {
		t.Fatalf("high-priority flit did not win: %v", f)
	}
	f, ok = pull(a)
	if !ok || f.Type != flit.SingleRead {
		t.Fatalf("best-effort flit lost: %v", f)
	}
}

func TestDualFIFOBestEffortStarvesWhileHPBusy(t *testing.T) {
	tieQ, brgQ := mkQueues()
	a := NewArbiter("a", ArbDualFIFO, tieQ, brgQ, 8)
	for i := 0; i < 4; i++ {
		tieQ.Push(msgFlit(uint32(i)))
	}
	brgQ.Push(smFlit(99))
	for c := int64(0); c < 8; c++ {
		a.Step(c)
	}
	// Pull everything: all message flits must come out before the bridge
	// flit.
	var order []flit.Type
	for {
		f, ok := pull(a)
		if !ok {
			break
		}
		order = append(order, f.Type)
	}
	if len(order) != 5 {
		t.Fatalf("pulled %d flits", len(order))
	}
	for i := 0; i < 4; i++ {
		if order[i] != flit.Message {
			t.Fatalf("flit %d is %v, want message (priority inversion)", i, order[i])
		}
	}
	if order[4] != flit.SingleRead {
		t.Fatal("bridge flit missing")
	}
}

func TestFIFOCapacityBackpressure(t *testing.T) {
	tieQ, brgQ := mkQueues()
	a := NewArbiter("a", ArbSingleFIFO, tieQ, brgQ, 2)
	for i := 0; i < 4; i++ {
		tieQ.Push(msgFlit(uint32(i)))
	}
	// Stage for many cycles without pulling: the staging FIFO (cap 2)
	// must not overflow and the source queue retains the rest.
	for c := int64(0); c < 6; c++ {
		a.Step(c)
	}
	if tieQ.Len() != 2 {
		t.Errorf("source queue has %d flits, want 2 retained", tieQ.Len())
	}
}

func TestArbiterModeStrings(t *testing.T) {
	for _, m := range []ArbiterMode{ArbMux, ArbSingleFIFO, ArbDualFIFO} {
		if m.String() == "" {
			t.Error("empty mode string")
		}
	}
	if a := NewArbiter("n", ArbMux, nil, nil, 0); a.Name() != "n" {
		t.Error("name wrong")
	}
}
