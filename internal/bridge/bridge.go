// Package bridge implements the pif2NoC bridge: the block that translates a
// processor's memory-mapped (PIF) transactions into sequences of NoC flits
// and back. It supports single and block reads/writes plus the lock/unlock
// transactions, contains the 4-deep reorder buffer that re-sequences
// out-of-order block-read data, and provides the configurable arbiter that
// shares the node's single NoC injection port between the shared-memory
// interface and the TIE message-passing interface.
package bridge

import (
	"fmt"

	"repro/internal/flit"
	"repro/internal/queue"
	"repro/internal/stats"
)

// ReorderDepth is the depth of the block-read reorder buffer: one cache
// line of four 32-bit words, as in the paper's implementation.
const ReorderDepth = 4

// TxnKind enumerates the shared-memory transactions the bridge issues.
type TxnKind int

const (
	// TxnSingleRead reads one 32-bit word.
	TxnSingleRead TxnKind = iota
	// TxnSingleWrite writes one 32-bit word.
	TxnSingleWrite
	// TxnBlockRead reads one 16-byte line (four words).
	TxnBlockRead
	// TxnBlockWrite writes one 16-byte line (four words).
	TxnBlockWrite
	// TxnLock acquires the lock on a shared-memory line.
	TxnLock
	// TxnUnlock releases the lock on a shared-memory line.
	TxnUnlock
)

// String implements fmt.Stringer.
func (k TxnKind) String() string {
	switch k {
	case TxnSingleRead:
		return "single-read"
	case TxnSingleWrite:
		return "single-write"
	case TxnBlockRead:
		return "block-read"
	case TxnBlockWrite:
		return "block-write"
	case TxnLock:
		return "lock"
	case TxnUnlock:
		return "unlock"
	}
	return fmt.Sprintf("txn(%d)", int(k))
}

func (k TxnKind) flitType() flit.Type {
	switch k {
	case TxnSingleRead:
		return flit.SingleRead
	case TxnSingleWrite:
		return flit.SingleWrite
	case TxnBlockRead:
		return flit.BlockRead
	case TxnBlockWrite:
		return flit.BlockWrite
	case TxnLock:
		return flit.Lock
	case TxnUnlock:
		return flit.Unlock
	}
	panic("bridge: invalid txn kind")
}

// Txn is one shared-memory transaction request.
type Txn struct {
	Kind TxnKind
	Addr uint32
	// Data carries 1 word for single writes and 4 words for block writes.
	Data []uint32
}

// Result is the outcome of a completed transaction.
type Result struct {
	// Data carries 1 word for single reads and 4 words for block reads. It
	// is the bridge's own reorder buffer, valid until the next Start: copy
	// what must outlive the transaction.
	Data []uint32
	// Cycles is the total latency of the transaction.
	Cycles int64
}

type state int

const (
	stIdle state = iota
	stSendReq
	stAwaitGrant
	stSendData
	stAwaitCompletion
	stAwaitReadData
	stAwaitLockAck
	stDone
)

// Stats counts bridge events.
type Stats struct {
	Txns       stats.Counter
	FlitsSent  stats.Counter
	FlitsRecv  stats.Counter
	OutOfOrder stats.Counter // block-read data flits that arrived out of order
}

// RouteFunc is the bridge's configuration memory: it translates a
// shared-memory address to the NoC node id of the MPMMU serving it. With
// a single MPMMU the translation is effectively hardwired, as the paper
// notes; with several, addresses are typically line-interleaved.
type RouteFunc func(addr uint32) int

// Bridge is one node's pif2NoC bridge. It executes one transaction at a
// time (the PE is a blocking in-order core; the paper's MPMMU flow control
// likewise permits one outstanding request per node).
type Bridge struct {
	nodeID  int
	route   RouteFunc
	coordOf func(node int) (x, y int)

	out *queue.FIFO[flit.Flit]

	st      state
	txn     Txn
	started int64
	result  Result
	// sendQueue holds the flits of the current protocol step (one request,
	// or a write's data), sendQueue[sent:queued] those not yet fed out.
	sendQueue    [ReorderDepth]flit.Flit
	sent, queued int
	reorder      [ReorderDepth]uint32
	gotMask      uint8
	gotCount     int
	lastSeq      int
	nextPktID    uint64

	Stats Stats
}

// New creates a bridge for nodeID that targets the MPMMU at mmuNode for
// every address. coordOf maps node ids to torus coordinates. outCap sizes
// the output FIFO toward the arbiter.
func New(nodeID, mmuNode int, coordOf func(int) (int, int), outCap int) *Bridge {
	return NewRouted(nodeID, func(uint32) int { return mmuNode }, coordOf, outCap)
}

// NewRouted creates a bridge whose MPMMU target depends on the address,
// supporting systems with several memory nodes.
func NewRouted(nodeID int, route RouteFunc, coordOf func(int) (int, int), outCap int) *Bridge {
	return &Bridge{nodeID: nodeID, route: route, coordOf: coordOf,
		out: queue.NewFIFO[flit.Flit](outCap), lastSeq: -1}
}

// Out exposes the output FIFO drained by the arbiter.
func (b *Bridge) Out() *queue.FIFO[flit.Flit] { return b.out }

// Busy reports whether a transaction is in flight.
func (b *Bridge) Busy() bool { return b.st != stIdle && b.st != stDone }

// Start begins a transaction. It panics when one is already in flight.
func (b *Bridge) Start(t Txn, now int64) {
	if b.st != stIdle {
		panic("bridge: transaction already in flight")
	}
	switch t.Kind {
	case TxnSingleWrite:
		if len(t.Data) != 1 {
			panic("bridge: single write needs exactly 1 data word")
		}
	case TxnBlockWrite:
		if len(t.Data) != ReorderDepth {
			panic("bridge: block write needs exactly 4 data words")
		}
	}
	b.txn = t
	b.started = now
	b.result = Result{}
	b.gotMask, b.gotCount, b.lastSeq = 0, 0, -1
	b.Stats.Txns.Inc()
	b.sendRequest(now)
}

// sendRequest queues the request token — source id, address and type, as
// per the paper — as the only flit of the step.
func (b *Bridge) sendRequest(now int64) {
	b.sendQueue[0] = b.makeFlit(flit.SubAddr, 0, 0, b.txn.Addr, now)
	b.sent, b.queued = 0, 1
	b.st = stSendReq
}

// Done returns the result of a completed transaction and resets the bridge
// to idle. ok is false while the transaction is still in flight.
func (b *Bridge) Done() (Result, bool) {
	if b.st != stDone {
		return Result{}, false
	}
	b.st = stIdle
	return b.result, true
}

func (b *Bridge) makeFlit(sub flit.SubType, seq uint8, burst uint8, data uint32, now int64) flit.Flit {
	x, y := b.coordOf(b.route(b.txn.Addr))
	b.nextPktID++
	f := flit.Flit{
		DstX: uint8(x), DstY: uint8(y),
		Type: b.txn.Kind.flitType(), Sub: sub,
		Seq: seq, Burst: burst,
		Src:  uint8(b.nodeID),
		Data: data,
	}
	f.Meta.InjectCycle = now
	f.Meta.PacketID = uint64(b.nodeID)<<48 | 1<<40 | b.nextPktID
	return f
}

// Step advances the bridge by one cycle: it feeds at most one flit of the
// current protocol step into the output queue.
func (b *Bridge) Step(now int64) {
	switch b.st {
	case stSendReq, stSendData:
		if b.sent == b.queued {
			b.advanceAfterSend(now)
			return
		}
		f := b.sendQueue[b.sent]
		f.Meta.InjectCycle = now
		if !b.out.Push(f) {
			return // arbiter queue full; retry next cycle
		}
		b.sent++
		b.Stats.FlitsSent.Inc()
		if b.sent == b.queued {
			b.advanceAfterSend(now)
		}
	}
}

func (b *Bridge) advanceAfterSend(now int64) {
	switch b.st {
	case stSendReq:
		switch b.txn.Kind {
		case TxnSingleRead, TxnBlockRead:
			b.st = stAwaitReadData
		case TxnSingleWrite, TxnBlockWrite:
			b.st = stAwaitGrant
		case TxnLock, TxnUnlock:
			b.st = stAwaitLockAck
		}
	case stSendData:
		b.st = stAwaitCompletion
	}
}

// queueWriteData stages the data flits of a write transaction after the
// grant arrives. Block-write data flits are sequence-numbered so the MPMMU
// can reassemble them if the NoC reorders.
func (b *Bridge) queueWriteData(now int64) {
	n := len(b.txn.Data)
	code, err := flit.EncodeBurst(flit.RoundUpBurst(n))
	if err != nil {
		panic(err)
	}
	for i, w := range b.txn.Data {
		b.sendQueue[i] = b.makeFlit(flit.SubData, uint8(i), code, w, now)
	}
	b.sent, b.queued = 0, n
}

// Deliver accepts one shared-memory reply flit ejected by the switch.
func (b *Bridge) Deliver(f flit.Flit, now int64) {
	if f.Type == flit.Message {
		panic("bridge: message flit delivered to shared-memory bridge")
	}
	b.Stats.FlitsRecv.Inc()
	switch b.st {
	case stAwaitGrant:
		if f.Sub != flit.SubAck {
			panic(fmt.Sprintf("bridge %d: expected grant, got %v", b.nodeID, f))
		}
		b.queueWriteData(now)
		b.st = stSendData
	case stAwaitCompletion:
		if f.Sub != flit.SubAck {
			panic(fmt.Sprintf("bridge %d: expected completion ack, got %v", b.nodeID, f))
		}
		b.finish(now)
	case stAwaitLockAck:
		if f.Sub == flit.SubNack {
			// The MPMMU queues lock waiters, so a NACK is only used by
			// failure-injection tests; retry by re-sending the request.
			b.sendRequest(now)
			return
		}
		b.finish(now)
	case stAwaitReadData:
		if f.Sub != flit.SubData {
			panic(fmt.Sprintf("bridge %d: expected read data, got %v", b.nodeID, f))
		}
		want := 1
		if b.txn.Kind == TxnBlockRead {
			want = ReorderDepth
		}
		if int(f.Seq) >= want {
			panic(fmt.Sprintf("bridge %d: read data seq %d out of range", b.nodeID, f.Seq))
		}
		if int(f.Seq) != b.lastSeq+1 {
			b.Stats.OutOfOrder.Inc()
		}
		b.lastSeq = int(f.Seq)
		if b.gotMask&(1<<f.Seq) != 0 {
			panic(fmt.Sprintf("bridge %d: duplicate read data seq %d", b.nodeID, f.Seq))
		}
		b.gotMask |= 1 << f.Seq
		b.reorder[f.Seq] = f.Data
		b.gotCount++
		if b.gotCount == want {
			b.result.Data = b.reorder[:want:want]
			b.finish(now)
		}
	default:
		panic(fmt.Sprintf("bridge %d: unexpected flit %v in state %d", b.nodeID, f, b.st))
	}
}

func (b *Bridge) finish(now int64) {
	b.result.Cycles = now - b.started
	b.st = stDone
}
