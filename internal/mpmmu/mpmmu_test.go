package mpmmu

import (
	"testing"

	"repro/internal/flit"
	"repro/internal/memory"
)

func coordOf4x4(node int) (int, int) { return node % 4, node / 4 }

func newUnit(t *testing.T) (*Unit, *memory.DDR) {
	t.Helper()
	ddr := memory.NewDDR(memory.DefaultLatency)
	u, err := New(DefaultConfig(0, 4), ddr, coordOf4x4)
	if err != nil {
		t.Fatal(err)
	}
	return u, ddr
}

// pull drains one flit, stepping the unit as needed, within a cycle bound.
func pull(t *testing.T, u *Unit, now *int64, bound int) flit.Flit {
	t.Helper()
	for i := 0; i < bound; i++ {
		if f, ok := take(u); ok {
			return f
		}
		u.Step(*now)
		*now++
	}
	t.Fatalf("no flit produced within %d cycles", bound)
	return flit.Flit{}
}

// take is one handoff to the switch: the unit's Front, copied, then
// dropped.
func take(u *Unit) (flit.Flit, bool) {
	f := u.Front()
	if f == nil {
		return flit.Flit{}, false
	}
	g := *f
	u.Drop()
	return g, true
}

// deliver hands the unit f as the switch does, by pointer.
func deliver(u *Unit, f flit.Flit, now int64) { u.Deliver(&f, now) }

func req(src uint8, typ flit.Type, addr uint32) flit.Flit {
	return flit.Flit{Type: typ, Sub: flit.SubAddr, Src: src, Data: addr}
}

func TestSingleReadServesData(t *testing.T) {
	u, ddr := newUnit(t)
	ddr.WriteWord(0x1000, 0xFEEDFACE)
	now := int64(0)
	deliver(u, req(3, flit.SingleRead, 0x1000), now)
	f := pull(t, u, &now, 200)
	if f.Type != flit.SingleRead || f.Sub != flit.SubData || f.Data != 0xFEEDFACE {
		t.Fatalf("reply %v", f)
	}
	if x, y := coordOf4x4(3); int(f.DstX) != x || int(f.DstY) != y {
		t.Error("reply not addressed to requester")
	}
	if u.Stats.SingleReads.Value() != 1 {
		t.Error("read not counted")
	}
}

func TestBlockReadServesFourWords(t *testing.T) {
	u, ddr := newUnit(t)
	for i := uint32(0); i < 4; i++ {
		ddr.WriteWord(0x2000+4*i, 0x40+i)
	}
	now := int64(0)
	deliver(u, req(1, flit.BlockRead, 0x2004), now) // unaligned within line
	var words [4]uint32
	for i := 0; i < 4; i++ {
		f := pull(t, u, &now, 300)
		if f.Sub != flit.SubData {
			t.Fatalf("flit %d: %v", i, f)
		}
		words[f.Seq] = f.Data
	}
	for i, w := range words {
		if w != uint32(0x40+i) {
			t.Fatalf("word %d = %#x", i, w)
		}
	}
}

func TestCacheHitFasterThanMiss(t *testing.T) {
	u, _ := newUnit(t)
	now := int64(0)
	deliver(u, req(1, flit.SingleRead, 0x3000), now)
	start := now
	pull(t, u, &now, 300)
	missLat := now - start

	deliver(u, req(1, flit.SingleRead, 0x3000), now)
	start = now
	pull(t, u, &now, 300)
	hitLat := now - start
	if hitLat >= missLat {
		t.Errorf("hit latency %d not faster than miss latency %d", hitLat, missLat)
	}
}

func TestWriteProtocol(t *testing.T) {
	u, ddr := newUnit(t)
	now := int64(0)
	deliver(u, req(2, flit.SingleWrite, 0x4000), now)
	grant := pull(t, u, &now, 100)
	if grant.Sub != flit.SubAck {
		t.Fatalf("want grant, got %v", grant)
	}
	deliver(u, flit.Flit{Type: flit.SingleWrite, Sub: flit.SubData, Src: 2, Seq: 0, Data: 0xAB}, now)
	done := pull(t, u, &now, 300)
	if done.Sub != flit.SubAck {
		t.Fatalf("want completion, got %v", done)
	}
	u.FlushCache()
	if got := ddr.ReadWord(0x4000); got != 0xAB {
		t.Fatalf("memory holds %#x", got)
	}
}

func TestBlockWriteOutOfOrderData(t *testing.T) {
	u, ddr := newUnit(t)
	now := int64(0)
	deliver(u, req(2, flit.BlockWrite, 0x5000), now)
	pull(t, u, &now, 100) // grant
	for _, seq := range []uint8{3, 1, 0, 2} {
		deliver(u, flit.Flit{Type: flit.BlockWrite, Sub: flit.SubData, Src: 2, Seq: seq, Data: uint32(10 + seq)}, now)
	}
	pull(t, u, &now, 300) // completion
	u.FlushCache()
	for i := uint32(0); i < 4; i++ {
		if got := ddr.ReadWord(0x5000 + 4*i); got != 10+i {
			t.Fatalf("word %d = %d", i, got)
		}
	}
}

func TestLockExclusivityAndFIFOGrant(t *testing.T) {
	u, _ := newUnit(t)
	now := int64(0)
	deliver(u, req(1, flit.Lock, 0x6000), now)
	g1 := pull(t, u, &now, 50)
	if g1.Type != flit.Lock || g1.Sub != flit.SubAck || int(g1.DstX) != 1 {
		t.Fatalf("first lock grant %v", g1)
	}
	// Two more requesters queue up.
	deliver(u, req(2, flit.Lock, 0x6000), now)
	deliver(u, req(3, flit.Lock, 0x6000), now)
	for i := 0; i < 20; i++ {
		u.Step(now)
		now++
	}
	if _, ok := take(u); ok {
		t.Fatal("lock granted while held")
	}
	if u.Stats.LockWaits.Value() != 2 {
		t.Errorf("lock waits = %d", u.Stats.LockWaits.Value())
	}
	// Unlock by owner: node 2 (FIFO head) must be granted next.
	deliver(u, req(1, flit.Unlock, 0x6000), now)
	a1 := pull(t, u, &now, 50) // unlock ack to node 1
	if a1.Type != flit.Unlock || int(a1.DstX) != 1 {
		t.Fatalf("unlock ack %v", a1)
	}
	g2 := pull(t, u, &now, 50)
	if g2.Type != flit.Lock || int(g2.DstX)+4*int(g2.DstY) != 2 {
		t.Fatalf("second grant to wrong node: %v", g2)
	}
	// Chain: unlock by 2 grants 3.
	deliver(u, req(2, flit.Unlock, 0x6000), now)
	pull(t, u, &now, 50) // unlock ack to 2
	g3 := pull(t, u, &now, 50)
	if g3.Type != flit.Lock || int(g3.DstX)+4*int(g3.DstY) != 3 {
		t.Fatalf("third grant to wrong node: %v", g3)
	}
	deliver(u, req(3, flit.Unlock, 0x6000), now)
	pull(t, u, &now, 50)
	if u.LockedWords() != 0 {
		t.Error("lock table not empty at the end")
	}
}

func TestDistinctWordsLockIndependently(t *testing.T) {
	u, _ := newUnit(t)
	now := int64(0)
	deliver(u, req(1, flit.Lock, 0x6000), now)
	deliver(u, req(2, flit.Lock, 0x6004), now)
	pull(t, u, &now, 50)
	pull(t, u, &now, 50)
	if u.LockedWords() != 2 {
		t.Error("independent words should both be locked")
	}
}

func TestUnlockByNonOwnerPanics(t *testing.T) {
	u, _ := newUnit(t)
	now := int64(0)
	deliver(u, req(1, flit.Lock, 0x6000), now)
	pull(t, u, &now, 50)
	deliver(u, req(2, flit.Unlock, 0x6000), now)
	defer func() {
		if recover() == nil {
			t.Error("unlock by non-owner should panic")
		}
	}()
	for i := 0; i < 10; i++ {
		u.Step(now)
		now++
	}
}

func TestSerializationOfRequests(t *testing.T) {
	// Two reads from different nodes: replies must come out strictly one
	// transaction after the other (the MPMMU is a serial slave).
	u, ddr := newUnit(t)
	ddr.WriteWord(0x100, 1)
	ddr.WriteWord(0x7000, 2)
	now := int64(0)
	deliver(u, req(1, flit.SingleRead, 0x100), now)
	deliver(u, req(2, flit.SingleRead, 0x7000), now)
	f1 := pull(t, u, &now, 300)
	f2 := pull(t, u, &now, 300)
	if f1.Data != 1 || f2.Data != 2 {
		t.Fatalf("replies out of order: %v then %v", f1.Data, f2.Data)
	}
	if u.Stats.BusyCycles.Value() == 0 {
		t.Error("busy cycles not recorded")
	}
}

// serve runs one request from its request token to its last reply flit,
// playing the requesting bridge inline (write data follows the grant), and
// returns the cycle after the last flit left. It allocates nothing itself.
func serve(u *Unit, src uint8, typ flit.Type, addr uint32, now int64) int64 {
	pull := func(flits int) {
		for flits > 0 {
			if _, ok := take(u); ok {
				flits--
				continue
			}
			u.Step(now)
			now++
		}
	}
	deliver(u, req(src, typ, addr), now)
	switch typ {
	case flit.SingleWrite, flit.BlockWrite:
		pull(1) // the grant
		words := 1
		if typ == flit.BlockWrite {
			words = 4
		}
		for i := range words {
			deliver(u, flit.Flit{Type: typ, Sub: flit.SubData, Src: src, Seq: uint8(i), Data: uint32(i)}, now)
		}
		pull(1) // the completion
	case flit.BlockRead:
		pull(4)
	default:
		pull(1)
	}
	return now
}

// TestRequestsAllocFree holds the memory node's side of an L1 miss to no
// allocation: every request kind, from its token to its reply, with the
// reply left pending as a value (not a closure) until the access latency
// has passed, and a lock taken and released without a heap record.
func TestRequestsAllocFree(t *testing.T) {
	u, _ := newUnit(t)
	now := int64(0)
	for _, c := range []struct {
		name string
		typs []flit.Type // served in turn, each from token to reply
		addr uint32
	}{
		{"single-read", []flit.Type{flit.SingleRead}, 0x1000},
		{"block-read", []flit.Type{flit.BlockRead}, 0x2000},
		{"single-write", []flit.Type{flit.SingleWrite}, 0x1004},
		{"block-write", []flit.Type{flit.BlockWrite}, 0x2010},
		{"lock-unlock", []flit.Type{flit.Lock, flit.Unlock}, 0x6000},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			for _, typ := range c.typs {
				now = serve(u, 1, typ, c.addr, now)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per request, want 0", c.name, allocs)
		}
	}
	if u.LockedWords() != 0 {
		t.Errorf("%d words still locked, want 0", u.LockedWords())
	}
}

func TestConfigValidation(t *testing.T) {
	ddr := memory.NewDDR(memory.DefaultLatency)
	if _, err := New(Config{NodeID: 0, NumCores: 0, CacheKB: 32, HitCycles: 1}, ddr, coordOf4x4); err == nil {
		t.Error("zero cores should fail")
	}
	if _, err := New(Config{NodeID: 0, NumCores: 2, CacheKB: 0, HitCycles: 1}, ddr, coordOf4x4); err == nil {
		t.Error("zero cache should fail")
	}
}
