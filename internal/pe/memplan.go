package pe

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bridge"
	"repro/internal/cache"
)

// memSeq is the micro-sequence implementing the pending memory or lock
// operation: up to two bridge transactions executed in order (victim
// write-back then line fill; the two halves of a write-through double
// store), then finishSeq, which updates the cache and produces the result
// plus the final core-side latency (typically the L1 access cycle).
type memSeq struct {
	txns [2]bridge.Txn
	// data holds what each read returned, copied out of the bridge's
	// buffer, which the next transaction reuses.
	data    [2][bridge.ReorderDepth]uint32
	n, next int // planned, started
	// fill: the last transaction reads the line a cached access missed on;
	// finishSeq installs it and performs the access.
	fill bool
}

func (s *memSeq) reset() { s.n, s.next, s.fill = 0, 0, false }

func (s *memSeq) add(kind bridge.TxnKind, addr uint32, data []uint32) {
	s.txns[s.n] = bridge.Txn{Kind: kind, Addr: addr, Data: data}
	s.n++
}

// planSeq plans the transactions of the pending memory or lock operation.
// Planning happens when the operation starts; since the core is blocking
// and in-order, cache state cannot change underneath the plan. Cached
// accesses arrive here only when they need the bridge: the program side
// has done (and counted) the L1 lookup and retired the hits that stay
// inside the core (Env.load, Env.store).
func (p *Proc) planSeq() {
	o, s := &p.pending, &p.seq
	s.reset()
	switch o.kind {
	case opLock:
		s.add(bridge.TxnLock, o.addr, nil)
	case opUnlock:
		s.add(bridge.TxnUnlock, o.addr, nil)
	case opFlush:
		// Software cache flush: write the dirty line back to system
		// memory so producer-side coherency holds (paper §II-E).
		var buf [cache.LineBytes]byte
		if p.Cache.FlushLineInto(o.addr, buf[:]) {
			s.add(bridge.TxnBlockWrite, cache.LineAddr(o.addr), p.lineOf(buf[:]))
		}
	case opLoadU:
		p.Stats.UncachedOps.Inc()
		s.add(bridge.TxnSingleRead, o.addr, nil)
	case opStoreU:
		p.planStoreThrough()
	case opLoad, opStore:
		wb := p.Cache.Policy() == cache.WriteBack
		if !wb && o.kind == opStore {
			// Write-through: the store goes to system memory whether it
			// hit (the program side has updated the line) or missed
			// (write-no-allocate), and the core stalls for the protocol
			// round trips — no store buffer, as in the paper's simple core.
			p.planStoreThrough()
			return
		}
		// A miss that allocates: write a dirty victim back, fetch the line.
		line := cache.LineAddr(o.addr)
		if wb {
			var buf [cache.LineBytes]byte
			if vaddr, dirty := p.Cache.VictimInto(line, buf[:]); dirty {
				s.add(bridge.TxnBlockWrite, vaddr, p.lineOf(buf[:]))
			}
		}
		s.add(bridge.TxnBlockRead, line, nil)
		s.fill = true
	default:
		panic("pe: not a memory or lock op")
	}
}

// planStoreThrough emits the single-write transactions of an uncached or
// write-through store (one per 32-bit word).
func (p *Proc) planStoreThrough() {
	o := &p.pending
	p.Stats.UncachedOps.Inc()
	p.storeWords = [2]uint32{uint32(o.value), uint32(o.value >> 32)}
	p.seq.add(bridge.TxnSingleWrite, o.addr, p.storeWords[0:1])
	if o.size == 8 {
		p.seq.add(bridge.TxnSingleWrite, o.addr+4, p.storeWords[1:2])
	}
}

// finishSeq completes the pending operation once its transactions are
// done: it leaves the result in stash and returns the remaining core-side
// latency.
func (p *Proc) finishSeq() int64 {
	o, s := &p.pending, &p.seq
	switch {
	case s.fill:
		var buf [cache.LineBytes]byte
		bytesOf(buf[:], s.data[s.n-1][:])
		p.Cache.Fill(cache.LineAddr(o.addr), buf[:])
		if o.kind == opLoad {
			p.stash = result{value: p.Cache.ReadUint(o.addr, o.size)}
		} else {
			p.Cache.WriteUint(o.addr, o.size, o.value)
		}
		return p.Cost.CacheHit
	case o.kind == opLoadU:
		p.stash = result{value: uint64(s.data[0][0])}
	}
	return 1
}

// checkAlign panics unless addr is a size-aligned 4- or 8-byte access. It
// runs on the program's side of the switch, so a bad access fails the
// program that made it (ProgramErr, with its stack) and nothing else.
func checkAlign(addr uint32, size int) {
	if (size != 4 && size != 8) || addr%uint32(size) != 0 {
		panic(fmt.Errorf("pe: bad access: %d bytes at %#x (accesses are 4 or 8 bytes, aligned to their size)", size, addr))
	}
}

// lineOf converts one cache line to words in the core's scratch line.
func (p *Proc) lineOf(b []byte) []uint32 {
	wordsOf(p.lineWords[:], b)
	return p.lineWords[:]
}

// wordsOf decodes the little-endian words of b into dst.
func wordsOf(dst []uint32, b []byte) {
	if len(b) != 4*len(dst) {
		panic("pe: byte slice does not match its words")
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
}

// bytesOf encodes words into dst, little-endian.
func bytesOf(dst []byte, words []uint32) {
	if len(dst) != 4*len(words) {
		panic("pe: byte slice does not match its words")
	}
	for i, w := range words {
		binary.LittleEndian.PutUint32(dst[4*i:], w)
	}
}
