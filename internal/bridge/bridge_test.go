package bridge

import (
	"slices"
	"testing"

	"repro/internal/flit"
)

func coordOf4x4(node int) (int, int) { return node % 4, node / 4 }

func newBridge() *Bridge { return New(5, 0, coordOf4x4, 4) }

// drain pops all flits the bridge emitted this cycle.
func drain(b *Bridge) []flit.Flit {
	var out []flit.Flit
	for {
		f, ok := b.Out().Pop()
		if !ok {
			return out
		}
		out = append(out, f)
	}
}

// pump steps the bridge until it stops emitting, returning all flits.
func pump(b *Bridge, now *int64) []flit.Flit {
	var out []flit.Flit
	for i := 0; i < 64; i++ {
		b.Step(*now)
		*now++
		fl := drain(b)
		out = append(out, fl...)
		if len(fl) == 0 && len(out) > 0 {
			return out
		}
	}
	return out
}

func ack(t flit.Type) flit.Flit {
	return flit.Flit{Type: t, Sub: flit.SubAck, Src: 0}
}

func TestSingleReadProtocol(t *testing.T) {
	b := newBridge()
	now := int64(0)
	b.Start(Txn{Kind: TxnSingleRead, Addr: 0x1234}, now)
	fl := pump(b, &now)
	if len(fl) != 1 {
		t.Fatalf("request flits = %d, want 1", len(fl))
	}
	req := fl[0]
	if req.Type != flit.SingleRead || req.Sub != flit.SubAddr || req.Data != 0x1234 || req.Src != 5 {
		t.Fatalf("bad request token %v", req)
	}
	if x, y := coordOf4x4(0); int(req.DstX) != x || int(req.DstY) != y {
		t.Error("request not addressed to the MPMMU")
	}
	if _, ok := b.Done(); ok {
		t.Fatal("done before reply")
	}
	b.Deliver(flit.Flit{Type: flit.SingleRead, Sub: flit.SubData, Data: 0xCAFE}, now)
	res, ok := b.Done()
	if !ok {
		t.Fatal("not done after data")
	}
	if len(res.Data) != 1 || res.Data[0] != 0xCAFE {
		t.Fatalf("result %v", res.Data)
	}
}

func TestBlockReadReorder(t *testing.T) {
	b := newBridge()
	now := int64(0)
	b.Start(Txn{Kind: TxnBlockRead, Addr: 0x100}, now)
	pump(b, &now)
	// Data arrives out of order: the reorder buffer must resequence.
	for _, seq := range []uint8{2, 0, 3, 1} {
		b.Deliver(flit.Flit{Type: flit.BlockRead, Sub: flit.SubData, Seq: seq, Burst: 1, Data: uint32(100 + seq)}, now)
	}
	res, ok := b.Done()
	if !ok {
		t.Fatal("block read did not complete")
	}
	for i, w := range res.Data {
		if w != uint32(100+i) {
			t.Fatalf("word %d = %d (reorder buffer failed)", i, w)
		}
	}
	if b.Stats.OutOfOrder.Value() == 0 {
		t.Error("out-of-order arrivals not counted")
	}
}

func TestSingleWriteProtocol(t *testing.T) {
	b := newBridge()
	now := int64(0)
	b.Start(Txn{Kind: TxnSingleWrite, Addr: 0x40, Data: []uint32{0xBEEF}}, now)
	fl := pump(b, &now)
	if len(fl) != 1 || fl[0].Sub != flit.SubAddr {
		t.Fatalf("want one request token, got %v", fl)
	}
	// Grant.
	b.Deliver(ack(flit.SingleWrite), now)
	dataFl := pump(b, &now)
	if len(dataFl) != 1 || dataFl[0].Sub != flit.SubData || dataFl[0].Data != 0xBEEF {
		t.Fatalf("data flits %v", dataFl)
	}
	if _, ok := b.Done(); ok {
		t.Fatal("done before completion ack")
	}
	// Completion.
	b.Deliver(ack(flit.SingleWrite), now)
	if _, ok := b.Done(); !ok {
		t.Fatal("not done after completion")
	}
}

func TestBlockWriteProtocol(t *testing.T) {
	b := newBridge()
	now := int64(0)
	b.Start(Txn{Kind: TxnBlockWrite, Addr: 0x80, Data: []uint32{1, 2, 3, 4}}, now)
	pump(b, &now)
	b.Deliver(ack(flit.BlockWrite), now)
	dataFl := pump(b, &now)
	if len(dataFl) != 4 {
		t.Fatalf("data flits = %d, want 4", len(dataFl))
	}
	for i, f := range dataFl {
		if int(f.Seq) != i || f.Data != uint32(i+1) || f.Sub != flit.SubData {
			t.Fatalf("data flit %d wrong: %v", i, f)
		}
	}
	b.Deliver(ack(flit.BlockWrite), now)
	if _, ok := b.Done(); !ok {
		t.Fatal("block write not completed")
	}
}

func TestLockUnlock(t *testing.T) {
	b := newBridge()
	now := int64(0)
	b.Start(Txn{Kind: TxnLock, Addr: 0x200}, now)
	fl := pump(b, &now)
	if len(fl) != 1 || fl[0].Type != flit.Lock {
		t.Fatalf("lock request %v", fl)
	}
	b.Deliver(ack(flit.Lock), now)
	if _, ok := b.Done(); !ok {
		t.Fatal("lock not granted")
	}
	b.Start(Txn{Kind: TxnUnlock, Addr: 0x200}, now)
	pump(b, &now)
	b.Deliver(ack(flit.Unlock), now)
	if _, ok := b.Done(); !ok {
		t.Fatal("unlock not completed")
	}
}

func TestLockNackRetries(t *testing.T) {
	b := newBridge()
	now := int64(0)
	b.Start(Txn{Kind: TxnLock, Addr: 0x200}, now)
	pump(b, &now)
	b.Deliver(flit.Flit{Type: flit.Lock, Sub: flit.SubNack}, now)
	fl := pump(b, &now)
	if len(fl) != 1 || fl[0].Type != flit.Lock || fl[0].Sub != flit.SubAddr {
		t.Fatalf("no retry after NACK: %v", fl)
	}
	b.Deliver(ack(flit.Lock), now)
	if _, ok := b.Done(); !ok {
		t.Fatal("lock not granted after retry")
	}
}

func TestBusyAndLatency(t *testing.T) {
	b := newBridge()
	if b.Busy() {
		t.Fatal("fresh bridge busy")
	}
	b.Start(Txn{Kind: TxnSingleRead, Addr: 4}, 10)
	if !b.Busy() {
		t.Fatal("bridge should be busy")
	}
	now := int64(10)
	pump(b, &now)
	b.Deliver(flit.Flit{Type: flit.SingleRead, Sub: flit.SubData, Data: 0}, 25)
	res, _ := b.Done()
	if res.Cycles != 15 {
		t.Errorf("latency = %d, want 15", res.Cycles)
	}
	if b.Stats.TxnLatency.Count() != 1 {
		t.Error("latency not recorded")
	}
}

func TestStartWhileBusyPanics(t *testing.T) {
	b := newBridge()
	b.Start(Txn{Kind: TxnSingleRead, Addr: 4}, 0)
	defer func() {
		if recover() == nil {
			t.Error("second Start should panic")
		}
	}()
	b.Start(Txn{Kind: TxnSingleRead, Addr: 8}, 0)
}

func TestBadWriteDataPanics(t *testing.T) {
	b := newBridge()
	defer func() {
		if recover() == nil {
			t.Error("single write without data should panic")
		}
	}()
	b.Start(Txn{Kind: TxnSingleWrite, Addr: 4}, 0)
}

func TestMessageDeliveryPanics(t *testing.T) {
	b := newBridge()
	defer func() {
		if recover() == nil {
			t.Error("message flit to bridge should panic")
		}
	}()
	b.Deliver(flit.Flit{Type: flit.Message}, 0)
}

func TestDuplicateReadDataPanics(t *testing.T) {
	b := newBridge()
	now := int64(0)
	b.Start(Txn{Kind: TxnBlockRead, Addr: 0}, now)
	pump(b, &now)
	b.Deliver(flit.Flit{Type: flit.BlockRead, Sub: flit.SubData, Seq: 1, Burst: 1}, now)
	defer func() {
		if recover() == nil {
			t.Error("duplicate seq should panic")
		}
	}()
	b.Deliver(flit.Flit{Type: flit.BlockRead, Sub: flit.SubData, Seq: 1, Burst: 1}, now)
}

// transact runs one transaction from Start to Done the way a node runs
// it, with the MPMMU's side played inline: the bridge steps until its
// flits are out and the arbiter queue takes them, then gets its reply —
// read data (word i is 100+i), a grant and a completion ack, or a lock
// ack, after one NACK when nack is set. It allocates nothing itself.
func transact(b *Bridge, t Txn, nack bool, now *int64) Result {
	send := func() {
		for b.Sending() {
			b.Step(*now)
			*now++
			for _, ok := b.Out().Pop(); ok; _, ok = b.Out().Pop() {
			}
		}
	}
	b.Start(t, *now)
	send()
	typ := t.Kind.flitType()
	switch t.Kind {
	case TxnSingleRead, TxnBlockRead:
		words := 1
		if t.Kind == TxnBlockRead {
			words = ReorderDepth
		}
		for i := words - 1; i >= 0; i-- {
			b.Deliver(flit.Flit{Type: typ, Sub: flit.SubData, Seq: uint8(i), Data: uint32(100 + i)}, *now)
		}
	case TxnSingleWrite, TxnBlockWrite:
		b.Deliver(ack(typ), *now)
		send()
		b.Deliver(ack(typ), *now)
	case TxnLock, TxnUnlock:
		if nack {
			b.Deliver(flit.Flit{Type: typ, Sub: flit.SubNack}, *now)
			send()
		}
		b.Deliver(ack(typ), *now)
	}
	res, ok := b.Done()
	if !ok {
		panic("bridge: transaction not done after its reply")
	}
	return res
}

// TestTransactionsAllocFree holds the L1-miss path to no allocation: a
// transaction of every kind, and a NACKed lock retried, runs from Start to
// Done on the bridge's fixed send buffer and returns its read data in the
// bridge's own reorder buffer.
func TestTransactionsAllocFree(t *testing.T) {
	word, line := []uint32{7}, []uint32{1, 2, 3, 4}
	cases := []struct {
		name string
		txn  Txn
		nack bool
		want []uint32
	}{
		{"single-read", Txn{Kind: TxnSingleRead, Addr: 0x40}, false, []uint32{100}},
		{"block-read", Txn{Kind: TxnBlockRead, Addr: 0x80}, false, []uint32{100, 101, 102, 103}},
		{"single-write", Txn{Kind: TxnSingleWrite, Addr: 0x40, Data: word}, false, nil},
		{"block-write", Txn{Kind: TxnBlockWrite, Addr: 0x80, Data: line}, false, nil},
		{"lock", Txn{Kind: TxnLock, Addr: 0x200}, false, nil},
		{"unlock", Txn{Kind: TxnUnlock, Addr: 0x200}, false, nil},
		{"lock-nack-retry", Txn{Kind: TxnLock, Addr: 0x200}, true, nil},
	}
	b := newBridge()
	now := int64(0)
	for _, c := range cases {
		if allocs := testing.AllocsPerRun(100, func() { transact(b, c.txn, c.nack, &now) }); allocs != 0 {
			t.Errorf("%s: %v allocations per transaction, want 0", c.name, allocs)
		}
		if got := transact(b, c.txn, c.nack, &now).Data; !slices.Equal(got, c.want) {
			t.Errorf("%s: result data %v, want %v", c.name, got, c.want)
		}
	}
	if got, want := b.Stats.Txns.Value(), int64(len(cases)*102); got != want {
		t.Errorf("%d transactions counted, want %d", got, want)
	}
}

func TestTxnKindStrings(t *testing.T) {
	kinds := []TxnKind{TxnSingleRead, TxnSingleWrite, TxnBlockRead, TxnBlockWrite, TxnLock, TxnUnlock}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("empty string for kind %d", int(k))
		}
	}
}
