// Package mpmmu implements the Multiprocessor Memory Management Unit: the
// special slave node that serves every shared-memory transaction in the
// system. It owns the DDR backing store, fronts it with a local cache, and
// runs the paper's Request/Data protocol: write requests are granted before
// data is accepted (an implicit flow-control scheme that keeps local
// buffers minimal) and read requests are answered immediately through the
// outgoing FIFO. Lock/unlock requests maintain a per-word lock table with
// FIFO waiters, providing the atomic sections the pure shared-memory
// programming model needs.
package mpmmu

import (
	"encoding/binary"
	"fmt"

	"repro/internal/cache"
	"repro/internal/flit"
	"repro/internal/memory"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Config parameterizes the MPMMU.
type Config struct {
	// NodeID is the MPMMU's position on the NoC.
	NodeID int
	// NumCores sizes the Pif-Request/Control queue ("as large as the
	// number of processors").
	NumCores int
	// CacheKB sizes the MPMMU's local data cache.
	CacheKB int
	// HitCycles is the local-cache hit latency.
	HitCycles int64
}

// DefaultConfig returns the MPMMU configuration used by the reproduction:
// a 32 kB local write-back cache with a 2-cycle hit latency.
func DefaultConfig(nodeID, numCores int) Config {
	return Config{NodeID: nodeID, NumCores: numCores, CacheKB: 32, HitCycles: 2}
}

// Stats counts MPMMU activity.
type Stats struct {
	SingleReads  stats.Counter
	SingleWrites stats.Counter
	BlockReads   stats.Counter
	BlockWrites  stats.Counter
	Locks        stats.Counter
	Unlocks      stats.Counter
	LockWaits    stats.Counter // lock requests that had to queue
	BusyCycles   stats.Counter
	ReqQPeak     int
	OutQPeak     int
}

type state int

const (
	stIdle    state = iota
	stBusy          // performing a memory access; done at busyUntil
	stCollect       // waiting for write data flits
)

type lockState struct {
	owner   int
	waiters []int
}

// Unit is the MPMMU node. It implements noc.LocalPort (Front/Drop/Deliver)
// and sim.Component (Step in sim.PhaseNode).
type Unit struct {
	cfg     Config
	coordOf func(node int) (x, y int)
	ddr     *memory.DDR
	cache   *cache.Cache

	reqQ  *queue.FIFO[flit.Flit]
	dataQ *queue.FIFO[flit.Flit]
	outQ  *queue.FIFO[flit.Flit]

	st        state
	busyUntil int64
	cur       flit.Flit // request being served
	curWords  int       // data words expected (writes)
	lineBuf   [4]uint32
	gotMask   uint8
	gotCount  int
	// reply is what Step sends to cur's source when busyUntil arrives:
	// words data flits out of readBuf for a read, one ack when words is 0,
	// stamped as injected at cycle at.
	reply struct {
		words int
		at    int64
	}

	// Scratch buffers for the per-request access path. The MPMMU serves
	// one request at a time, so a single set of buffers is safe and keeps
	// the busiest component in the system allocation-free.
	readBuf     [4]uint32
	lineScratch [cache.LineBytes]byte

	locks     map[uint32]lockState
	nextPktID uint64

	// wake is the unit's own scheduling handle; puller is the switch that
	// drains outQ, woken on every reply pushed.
	wake, puller *sim.Handle

	Stats Stats
}

// New builds an MPMMU over the given DDR. coordOf maps node ids to torus
// coordinates for reply addressing.
func New(cfg Config, ddr *memory.DDR, coordOf func(int) (int, int)) (*Unit, error) {
	c, err := cache.New(cache.KB(cfg.CacheKB, cache.WriteBack))
	if err != nil {
		return nil, fmt.Errorf("mpmmu: %w", err)
	}
	if cfg.NumCores <= 0 {
		return nil, fmt.Errorf("mpmmu: need at least one core")
	}
	return &Unit{
		cfg:     cfg,
		coordOf: coordOf,
		ddr:     ddr,
		cache:   c,
		reqQ:    queue.NewFIFO[flit.Flit](cfg.NumCores),
		dataQ:   queue.NewFIFO[flit.Flit](flit.MaxLogicalPacket),
		outQ:    queue.NewFIFO[flit.Flit](0),
		locks:   make(map[uint32]lockState),
	}, nil
}

// Cache exposes the local cache for statistics.
func (u *Unit) Cache() *cache.Cache { return u.cache }

// Name implements sim.Component.
func (u *Unit) Name() string { return "mpmmu" }

// Bind implements sim.Sleeper. The unit's inputs are its own clock
// (busyUntil) and the request and data queues, filled only by Deliver,
// which wakes it.
func (u *Unit) Bind(h *sim.Handle) { u.wake = h }

// WakeOnInject implements noc.InjectWaker.
func (u *Unit) WakeOnInject(h *sim.Handle) { u.puller = h }

// Deliver implements noc.LocalPort: incoming flits are demultiplexed into
// the Pif-Request/Control queue (request tokens) and the Pif-Data queue
// (granted write data), as in the paper.
func (u *Unit) Deliver(f *flit.Flit, now int64) {
	switch f.Sub {
	case flit.SubAddr:
		if !u.reqQ.Push(*f) {
			// Each core has at most one outstanding request, so the
			// request queue (depth = number of cores) can never overflow.
			panic("mpmmu: request queue overflow")
		}
		if u.reqQ.Len() > u.Stats.ReqQPeak {
			u.Stats.ReqQPeak = u.reqQ.Len()
		}
	case flit.SubData:
		if !u.dataQ.Push(*f) {
			// Data only arrives after a grant; the protocol bounds it to
			// one line.
			panic("mpmmu: data queue overflow")
		}
	default:
		panic(fmt.Sprintf("mpmmu: unexpected flit %v", *f))
	}
	u.wake.Wake()
}

// Front implements noc.LocalPort: the switch drains the outgoing FIFO at
// one flit per cycle.
func (u *Unit) Front() *flit.Flit { return u.outQ.Front() }

// Drop implements noc.LocalPort.
func (u *Unit) Drop() { u.outQ.Drop() }

// Step implements sim.Component.
func (u *Unit) Step(now int64) {
	switch u.st {
	case stBusy:
		u.Stats.BusyCycles.Inc()
		if now >= u.busyUntil {
			u.st = stIdle
			u.sendReply()
		}
	case stCollect:
		u.collectData(now)
	case stIdle:
		u.startNext(now)
	}
	// Ask after every Step: a unit that just started an access knows it
	// has nothing to do until busyUntil. The memory node is one component
	// per system, so the question is never on a hot path.
	u.wake.Idle()
}

func (u *Unit) startNext(now int64) {
	req, ok := u.reqQ.Pop()
	if !ok {
		return
	}
	u.cur = req
	switch req.Type {
	case flit.SingleRead:
		u.Stats.SingleReads.Inc()
		u.startRead(now, req.Data, 1)
	case flit.BlockRead:
		u.Stats.BlockReads.Inc()
		u.startRead(now, cache.LineAddr(req.Data), 4)
	case flit.SingleWrite:
		u.Stats.SingleWrites.Inc()
		u.startWrite(now, 1)
	case flit.BlockWrite:
		u.Stats.BlockWrites.Inc()
		u.startWrite(now, 4)
	case flit.Lock:
		u.Stats.Locks.Inc()
		u.handleLock(req)
	case flit.Unlock:
		u.Stats.Unlocks.Inc()
		u.handleUnlock(req)
	default:
		panic(fmt.Sprintf("mpmmu: unexpected request %v", req))
	}
}

// startRead performs the access into readBuf and, after the access
// latency, pushes the reply data into the outgoing FIFO.
func (u *Unit) startRead(now int64, addr uint32, words int) {
	u.becomeBusy(now, u.readWords(addr, words), words)
}

// startWrite grants the transaction and waits for the data flits.
func (u *Unit) startWrite(now int64, words int) {
	u.curWords = words
	u.gotMask, u.gotCount = 0, 0
	u.pushOut(int(u.cur.Src), u.cur.Type, flit.SubAck, 0, 0, 0, now)
	u.st = stCollect
}

func (u *Unit) collectData(now int64) {
	for {
		f, ok := u.dataQ.Pop()
		if !ok {
			break
		}
		if int(f.Src) != int(u.cur.Src) {
			panic(fmt.Sprintf("mpmmu: data from node %d during write by node %d", f.Src, u.cur.Src))
		}
		if int(f.Seq) >= u.curWords || u.gotMask&(1<<f.Seq) != 0 {
			panic(fmt.Sprintf("mpmmu: bad write data seq %d", f.Seq))
		}
		u.gotMask |= 1 << f.Seq
		u.lineBuf[f.Seq] = f.Data
		u.gotCount++
	}
	if u.gotCount < u.curWords {
		return
	}
	addr := u.cur.Data
	words := u.curWords
	var lat int64
	if words == 4 {
		lat = u.writeLine(cache.LineAddr(addr), u.lineBuf[:])
	} else {
		lat = u.writeWord(addr, u.lineBuf[0])
	}
	u.becomeBusy(now, lat, 0)
}

// becomeBusy occupies the unit for the access latency lat (at least one
// cycle) and leaves the reply of words data flits (0: an ack) to Step.
func (u *Unit) becomeBusy(now, lat int64, words int) {
	u.reply.words, u.reply.at = words, now+lat
	u.busyUntil = now + max(lat, 1)
	u.st = stBusy
}

// sendReply pushes the reply becomeBusy left pending.
func (u *Unit) sendReply() {
	dst, words, at := int(u.cur.Src), u.reply.words, u.reply.at
	if words == 0 {
		u.pushOut(dst, u.cur.Type, flit.SubAck, 0, 0, 0, at)
		return
	}
	code := uint8(0)
	if words > 1 {
		code, _ = flit.EncodeBurst(flit.RoundUpBurst(words))
	}
	for i, w := range u.readBuf[:words] {
		u.pushOut(dst, u.cur.Type, flit.SubData, uint8(i), code, w, at)
	}
}

func (u *Unit) handleLock(req flit.Flit) {
	addr := req.Data
	ls, held := u.locks[addr]
	if !held {
		u.locks[addr] = lockState{owner: int(req.Src)}
		u.pushOut(int(req.Src), flit.Lock, flit.SubAck, 0, 0, addr, 0)
		return
	}
	// All lock/unlock requests are stored in the Pif-Request/Control
	// queue; a busy lock queues the requester until the unlock arrives.
	u.Stats.LockWaits.Inc()
	ls.waiters = append(ls.waiters, int(req.Src))
	u.locks[addr] = ls
}

func (u *Unit) handleUnlock(req flit.Flit) {
	addr := req.Data
	ls, held := u.locks[addr]
	if !held || ls.owner != int(req.Src) {
		panic(fmt.Sprintf("mpmmu: node %d unlocking %#x it does not own", req.Src, addr))
	}
	u.pushOut(int(req.Src), flit.Unlock, flit.SubAck, 0, 0, addr, 0)
	if len(ls.waiters) == 0 {
		delete(u.locks, addr)
		return
	}
	ls.owner = ls.waiters[0]
	ls.waiters = ls.waiters[1:]
	u.locks[addr] = ls
	u.pushOut(ls.owner, flit.Lock, flit.SubAck, 0, 0, addr, 0)
}

// LockedWords returns the number of currently held locks (tests).
func (u *Unit) LockedWords() int { return len(u.locks) }

func (u *Unit) pushOut(dstNode int, t flit.Type, sub flit.SubType, seq, burst uint8, data uint32, now int64) {
	x, y := u.coordOf(dstNode)
	u.nextPktID++
	f := flit.Flit{
		DstX: uint8(x), DstY: uint8(y),
		Type: t, Sub: sub, Seq: seq, Burst: burst,
		Src:  uint8(u.cfg.NodeID),
		Data: data,
	}
	f.Meta.InjectCycle = now
	f.Meta.PacketID = uint64(u.cfg.NodeID)<<48 | 2<<40 | u.nextPktID
	u.outQ.Push(f)
	u.puller.Wake()
	if u.outQ.Len() > u.Stats.OutQPeak {
		u.Stats.OutQPeak = u.outQ.Len()
	}
}

// readWords reads n (<= 4) 32-bit words at addr through the local cache
// into readBuf and returns the access latency in cycles. readBuf is
// consumed before the next request starts (the MPMMU is busy until the
// reply is enqueued).
func (u *Unit) readWords(addr uint32, n int) int64 {
	lat := u.touchLine(addr)
	for i := range u.readBuf[:n] {
		a := addr + uint32(4*i)
		if cache.LineAddr(a) != cache.LineAddr(addr) {
			lat += u.touchLine(a)
		}
		u.readBuf[i] = u.cache.ReadWord(a)
	}
	return lat
}

// writeWord writes one word through the local cache (write-allocate).
func (u *Unit) writeWord(addr uint32, v uint32) int64 {
	lat := u.touchLine(addr)
	u.cache.WriteWord(addr, v)
	return lat
}

// writeLine writes a full line through the local cache.
func (u *Unit) writeLine(addr uint32, words []uint32) int64 {
	lat := u.touchLine(addr)
	for i, w := range words[:4] {
		binary.LittleEndian.PutUint32(u.lineScratch[4*i:], w)
	}
	u.cache.Write(addr, u.lineScratch[:])
	return lat
}

// touchLine makes the line containing addr resident and returns the
// latency of doing so (hit cost, or miss cost including victim write-back
// and the DDR access).
func (u *Unit) touchLine(addr uint32) int64 {
	if u.cache.Lookup(addr) {
		return u.cfg.HitCycles
	}
	lat := u.cfg.HitCycles
	line := cache.LineAddr(addr)
	if vaddr, wb := u.cache.VictimInto(line, u.lineScratch[:]); wb {
		u.ddr.Write(vaddr, u.lineScratch[:])
		lat += u.ddr.Latency.Cost(cache.LineBytes / 4)
	}
	u.ddr.ReadInto(line, u.lineScratch[:])
	u.cache.Fill(line, u.lineScratch[:])
	lat += u.ddr.Latency.Cost(cache.LineBytes / 4)
	return lat
}

// FlushCache writes all dirty lines of the local cache back to DDR. Used
// at the end of a run so that functional results can be checked in DDR.
func (u *Unit) FlushCache() {
	for _, addr := range u.cache.DirtyLines() {
		if u.cache.FlushLineInto(addr, u.lineScratch[:]) {
			u.ddr.Write(addr, u.lineScratch[:])
		}
	}
}
