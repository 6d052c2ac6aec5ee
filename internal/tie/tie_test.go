package tie

import (
	"testing"

	"repro/internal/flit"
	"repro/internal/sim"
)

func coordOf4x4(node int) (int, int) { return node % 4, node / 4 }

func newPort(node int) *Port {
	return NewPort(node, 16, coordOf4x4, 4, nil)
}

func TestStartSendBuildsFlits(t *testing.T) {
	p := newPort(3)
	if err := p.StartSend(6, Data, []uint32{10, 20, 30}, 0); err != nil {
		t.Fatal(err)
	}
	if !p.SendBusy() {
		t.Fatal("send should be in progress")
	}
	// 3 words round up to a 4-flit logical packet.
	var flits []flit.Flit
	for i := 0; i < 10; i++ {
		p.StepSend(int64(i))
		for {
			f, ok := p.Out().Pop()
			if !ok {
				break
			}
			flits = append(flits, f)
		}
	}
	if p.SendBusy() {
		t.Fatal("send should have completed")
	}
	if len(flits) != 4 {
		t.Fatalf("sent %d flits, want 4", len(flits))
	}
	for i, f := range flits {
		if f.Type != flit.Message || f.Sub != flit.SubMsgData {
			t.Errorf("flit %d: wrong type/sub %v/%v", i, f.Type, f.Sub)
		}
		if int(f.Seq) != i {
			t.Errorf("flit %d has seq %d", i, f.Seq)
		}
		if f.BurstLen() != 4 {
			t.Errorf("flit %d burst %d", i, f.BurstLen())
		}
		if int(f.DstX) != 2 || int(f.DstY) != 1 {
			t.Errorf("flit %d addressed to (%d,%d), want (2,1)", i, f.DstX, f.DstY)
		}
		if f.Src != 3 {
			t.Errorf("flit %d src %d", i, f.Src)
		}
	}
	// Padding beyond the payload must be zero.
	if flits[3].Data != 0 {
		t.Error("padding flit should carry zero")
	}
}

func TestSendOneFlitPerCycle(t *testing.T) {
	p := newPort(0)
	if err := p.StartSend(5, Req, []uint32{1, 2, 3, 4}, 0); err != nil {
		t.Fatal(err)
	}
	for cyc := 0; cyc < 4; cyc++ {
		p.StepSend(int64(cyc))
		if got := p.Out().Len(); got != cyc+1 {
			t.Fatalf("cycle %d: out queue has %d flits, want %d", cyc, got, cyc+1)
		}
	}
}

func TestSendStallsOnFullQueue(t *testing.T) {
	p := newPort(0)
	if err := p.StartSend(5, Data, []uint32{1, 2, 3, 4, 5, 6, 7, 8}, 0); err != nil {
		t.Fatal(err)
	}
	for cyc := 0; cyc < 10; cyc++ {
		p.StepSend(int64(cyc)) // out cap is 4: the rest must stall
	}
	if p.Out().Len() != 4 {
		t.Fatalf("queue holds %d", p.Out().Len())
	}
	if p.Stats.SendStalls.Value() == 0 {
		t.Error("stalls not counted")
	}
	if !p.SendBusy() {
		t.Error("send must still be busy")
	}
}

func TestSendRejectsBadLengths(t *testing.T) {
	p := newPort(0)
	if err := p.StartSend(1, Data, nil, 0); err == nil {
		t.Error("empty packet should be rejected")
	}
	if err := p.StartSend(1, Data, make([]uint32, 17), 0); err == nil {
		t.Error("oversized packet should be rejected")
	}
}

func deliverPacket(t *testing.T, src, dst *Port, words []uint32, class Class, perm []int) {
	t.Helper()
	if err := src.StartSend(0, class, words, 0); err != nil {
		t.Fatal(err)
	}
	var flits []flit.Flit
	for src.SendBusy() {
		src.StepSend(0)
		for {
			f, ok := src.Out().Pop()
			if !ok {
				break
			}
			flits = append(flits, f)
		}
	}
	if perm == nil {
		for _, f := range flits {
			dst.Deliver(f)
		}
		return
	}
	for _, i := range perm {
		dst.Deliver(flits[i])
	}
}

func TestReceiveInOrder(t *testing.T) {
	src, dst := newPort(2), newPort(0)
	deliverPacket(t, src, dst, []uint32{5, 6, 7, 8}, Data, nil)
	pkt, ok := dst.TryRecv(2, Data)
	if !ok {
		t.Fatal("packet not assembled")
	}
	for i, w := range []uint32{5, 6, 7, 8} {
		if pkt.Words[i] != w {
			t.Errorf("word %d = %d", i, pkt.Words[i])
		}
	}
	if pkt.Src != 2 || pkt.Class != Data {
		t.Errorf("packet meta %d/%v", pkt.Src, pkt.Class)
	}
}

func TestReceiveOutOfOrder(t *testing.T) {
	src, dst := newPort(2), newPort(0)
	deliverPacket(t, src, dst, []uint32{5, 6, 7, 8}, Data, []int{3, 0, 2, 1})
	pkt, ok := dst.TryRecv(2, Data)
	if !ok {
		t.Fatal("packet not assembled from out-of-order flits")
	}
	for i, w := range []uint32{5, 6, 7, 8} {
		if pkt.Words[i] != w {
			t.Errorf("word %d = %d (sequence-number scatter failed)", i, pkt.Words[i])
		}
	}
	if dst.Stats.Corrupted.Value() != 0 || dst.Stats.Overflows.Value() != 0 {
		t.Error("spurious integrity errors")
	}
}

func TestClassDemux(t *testing.T) {
	src, dst := newPort(2), newPort(0)
	deliverPacket(t, src, dst, []uint32{0xAA}, Req, nil)
	deliverPacket(t, src, dst, []uint32{0xBB}, Data, nil)
	if _, ok := dst.TryRecv(2, Data); !ok {
		t.Fatal("data packet lost")
	}
	pkt, ok := dst.TryRecv(2, Req)
	if !ok || pkt.Words[0] != 0xAA {
		t.Fatal("req packet lost or mixed with data")
	}
}

func TestTryRecvAnyScansAscending(t *testing.T) {
	dst := newPort(0)
	for _, src := range []int{9, 4, 7} {
		s := newPort(src)
		deliverPacket(t, s, dst, []uint32{uint32(src)}, Req, nil)
	}
	pkt, ok := dst.TryRecvAny(Req)
	if !ok || pkt.Src != 4 {
		t.Fatalf("TryRecvAny returned src %d, want 4 (lowest)", pkt.Src)
	}
}

func TestInterleavedPacketsFromSameSource(t *testing.T) {
	// Two packets sent back-to-back whose flits interleave heavily: the
	// packet-index ring must keep them separate and deliver in order.
	src, dst := newPort(2), newPort(0)
	collect := func(words []uint32) []flit.Flit {
		if err := src.StartSend(0, Data, words, 0); err != nil {
			t.Fatal(err)
		}
		var fl []flit.Flit
		for src.SendBusy() {
			src.StepSend(0)
			for {
				f, ok := src.Out().Pop()
				if !ok {
					break
				}
				fl = append(fl, f)
			}
		}
		return fl
	}
	a := collect([]uint32{1, 2, 3, 4})
	b := collect([]uint32{5, 6, 7, 8})
	order := []flit.Flit{b[0], a[3], b[2], a[0], b[3], a[1], b[1], a[2]}
	for _, f := range order {
		dst.Deliver(f)
	}
	p1, ok1 := dst.TryRecv(2, Data)
	p2, ok2 := dst.TryRecv(2, Data)
	if !ok1 || !ok2 {
		t.Fatal("packets not assembled")
	}
	if p1.Words[0] != 1 || p2.Words[0] != 5 {
		t.Errorf("FIFO order violated: %v then %v", p1.Words, p2.Words)
	}
	if dst.Stats.Corrupted.Value() != 0 || dst.Stats.Overflows.Value() != 0 {
		t.Error("integrity errors on legal interleaving")
	}
}

// TestRandomPermutationReassembly property-tests reassembly: a window of
// up to 4 in-flight packets delivered in a random global order must always
// reassemble correctly and in order.
func TestRandomPermutationReassembly(t *testing.T) {
	rng := sim.NewRNG(77)
	for trial := 0; trial < 200; trial++ {
		src, dst := newPort(2), newPort(0)
		numPkts := 1 + rng.Intn(flit.NumPktIdx) // within the ring tolerance
		var all []flit.Flit
		var want [][]uint32
		for k := 0; k < numPkts; k++ {
			n := []int{1, 4, 8, 16}[rng.Intn(4)]
			words := make([]uint32, n)
			for i := range words {
				words[i] = uint32(trial<<16 | k<<8 | i)
			}
			want = append(want, words)
			if err := src.StartSend(0, Data, words, 0); err != nil {
				t.Fatal(err)
			}
			for src.SendBusy() {
				src.StepSend(0)
				for {
					f, ok := src.Out().Pop()
					if !ok {
						break
					}
					all = append(all, f)
				}
			}
		}
		// Shuffle all flits of all packets (worst-case reordering).
		for i := len(all) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			all[i], all[j] = all[j], all[i]
		}
		for _, f := range all {
			dst.Deliver(f)
		}
		for k := 0; k < numPkts; k++ {
			pkt, ok := dst.TryRecv(2, Data)
			if !ok {
				t.Fatalf("trial %d: packet %d missing", trial, k)
			}
			for i, w := range want[k] {
				if pkt.Words[i] != w {
					t.Fatalf("trial %d packet %d word %d: got %#x want %#x",
						trial, k, i, pkt.Words[i], w)
				}
			}
		}
		if dst.Stats.Corrupted.Value() != 0 || dst.Stats.Overflows.Value() != 0 {
			t.Fatalf("trial %d: integrity errors", trial)
		}
	}
}

func TestOverflowDetected(t *testing.T) {
	// Five packets in flight exceed the 4-buffer ring: the fifth packet's
	// flits collide with the first's buffer and must be counted.
	src, dst := newPort(2), newPort(0)
	var first flit.Flit
	var later []flit.Flit
	for k := 0; k < flit.NumPktIdx+1; k++ {
		if err := src.StartSend(0, Data, []uint32{1, 2, 3, 4}, 0); err != nil {
			t.Fatal(err)
		}
		for src.SendBusy() {
			src.StepSend(0)
			for {
				f, ok := src.Out().Pop()
				if !ok {
					break
				}
				if k == 0 && f.Seq == 0 {
					first = f // hold back packet 0's first flit
					continue
				}
				later = append(later, f)
			}
		}
	}
	for _, f := range later {
		dst.Deliver(f)
	}
	dst.Deliver(first)
	if dst.Stats.Overflows.Value() == 0 {
		t.Error("ring overflow not detected")
	}
}

func TestDeliverRejectsNonMessage(t *testing.T) {
	dst := newPort(0)
	defer func() {
		if recover() == nil {
			t.Error("non-message flit should panic")
		}
	}()
	dst.Deliver(flit.Flit{Type: flit.SingleRead})
}

func TestClassString(t *testing.T) {
	if Req.String() != "req" || Data.String() != "data" {
		t.Error("class strings wrong")
	}
}
