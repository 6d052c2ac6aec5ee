// Package tie models the TIE message-passing port: the direct FIFO-like
// link between a processor's register file and its NoC switch (Fig. 2 of
// the paper). The send side stamps each flit with a sequence number and the
// destination's X-Y coordinates from a lookup table, sustaining one flit
// per cycle. The receive side demultiplexes flits by the Data/Req bit into
// a request segment and a data segment and scatters them by sequence number
// into a double buffer, so no sorting hardware is needed for out-of-order
// delivery.
package tie

import (
	"fmt"

	"repro/internal/flit"
	"repro/internal/queue"
	"repro/internal/stats"
)

// SendRecorder observes every logical message packet a TIE port starts
// sending (trace capture; internal/trace.Trace implements the same shape
// for injections). Called on the engine thread after the send is
// validated, so it sees exactly the packets the network will carry.
// Purely observational: results are byte-identical with or without it.
type SendRecorder interface {
	RecordMessage(cycle int64, src, dst int, meta uint32)
}

// Class distinguishes the two message-packet kinds carried on the port.
type Class int

const (
	// Req packets are synchronization tokens (the paper's request
	// packets).
	Req Class = iota
	// Data packets carry generic payload words.
	Data
	numClasses
)

// String implements fmt.Stringer.
func (c Class) String() string {
	if c == Req {
		return "req"
	}
	return "data"
}

func (c Class) sub() flit.SubType {
	if c == Req {
		return flit.SubMsgReq
	}
	return flit.SubMsgData
}

// ClassOf returns the Class encoded in a message flit's sub-type.
func ClassOf(f flit.Flit) Class {
	if f.Sub == flit.SubMsgReq {
		return Req
	}
	return Data
}

// Packet is one reassembled logical packet.
type Packet struct {
	Src   int
	Class Class
	Words []uint32 // padded to the burst length; callers trim
}

// Stats counts TIE port events.
type Stats struct {
	FlitsSent   stats.Counter
	FlitsRecv   stats.Counter
	PacketsSent stats.Counter
	PacketsRecv stats.Counter
	Overflows   stats.Counter // flit arrived with both double buffers busy
	Corrupted   stats.Counter // packet-id mismatch inside one buffer
	SendStalls  stats.Counter // cycles the send path waited on a full queue
}

// Port is one node's TIE message-passing interface.
type Port struct {
	nodeID  int
	coordOf func(node int) (x, y int) // the addressing LUT

	out *queue.FIFO[flit.Flit]

	// pending is the flit stream of the send in progress; the PE feeds it
	// at one flit per cycle.
	pending []flit.Flit

	asm   map[asmKey]*assembler
	ready map[asmKey]*queue.FIFO[Packet]
	// maxNodes bounds the node-id scan of TryRecvAny so any-source
	// receives are deterministic (ascending node ids).
	maxNodes int

	nextPktID uint64
	// pktIdx rotates the 2-bit packet index per (destination, class), so
	// the receiver's ring buffer can separate consecutive packets.
	pktIdx map[asmKey]uint8

	// rec, when non-nil, observes every packet this port starts sending.
	rec SendRecorder

	Stats Stats
}

type asmKey struct {
	src   int
	class Class
}

// NewPort creates the TIE port for nodeID. coordOf maps node ids to torus
// coordinates (the hardware's address LUT); maxNodes bounds the id space
// for deterministic any-source scans. outCap sizes the output FIFO toward
// the arbiter. rec, when non-nil, observes every packet the port starts
// sending (trace capture).
func NewPort(nodeID int, maxNodes int, coordOf func(int) (int, int), outCap int, rec SendRecorder) *Port {
	return &Port{
		nodeID:   nodeID,
		coordOf:  coordOf,
		out:      queue.NewFIFO[flit.Flit](outCap),
		asm:      make(map[asmKey]*assembler),
		ready:    make(map[asmKey]*queue.FIFO[Packet]),
		maxNodes: maxNodes,
		pktIdx:   make(map[asmKey]uint8),
		rec:      rec,
	}
}

// Out exposes the output FIFO drained by the arbiter.
func (p *Port) Out() *queue.FIFO[flit.Flit] { return p.out }

// StartSend begins transmitting one logical packet of up to 16 words to
// dst. The payload is padded to the next encodable burst length. It panics
// if a send is already in progress (the PE is a blocking in-order core).
func (p *Port) StartSend(dst int, class Class, words []uint32, now int64) error {
	if len(p.pending) != 0 {
		panic("tie: send already in progress")
	}
	if len(words) == 0 || len(words) > flit.MaxLogicalPacket {
		return fmt.Errorf("tie: logical packet of %d words (want 1..%d)", len(words), flit.MaxLogicalPacket)
	}
	n := flit.RoundUpBurst(len(words))
	code, err := flit.EncodeBurst(n)
	if err != nil {
		return err
	}
	if p.rec != nil {
		p.rec.RecordMessage(now, p.nodeID, dst, uint32(len(words)))
	}
	x, y := p.coordOf(dst)
	p.nextPktID++
	pktID := uint64(p.nodeID)<<48 | p.nextPktID
	idxKey := asmKey{src: dst, class: class}
	idx := p.pktIdx[idxKey]
	p.pktIdx[idxKey] = (idx + 1) % flit.NumPktIdx
	for seq := 0; seq < n; seq++ {
		var w uint32
		if seq < len(words) {
			w = words[seq]
		}
		f := flit.Flit{
			DstX: uint8(x), DstY: uint8(y),
			Type: flit.Message, Sub: class.sub(),
			Seq: uint8(seq), Burst: code,
			Src: uint8(p.nodeID), PktIdx: idx,
			Data: w,
		}
		f.Meta.InjectCycle = now
		f.Meta.PacketID = pktID
		p.pending = append(p.pending, f)
	}
	p.Stats.PacketsSent.Inc()
	return nil
}

// SendBusy reports whether a logical packet is still being fed to the
// output queue.
func (p *Port) SendBusy() bool { return len(p.pending) != 0 }

// StepSend moves at most one pending flit into the output queue (the TIE
// port's one-flit-per-cycle throughput). The PE calls it once per cycle
// while a send is in progress.
func (p *Port) StepSend(now int64) {
	if len(p.pending) == 0 {
		return
	}
	f := p.pending[0]
	f.Meta.InjectCycle = now // queueing starts now for this flit
	if !p.out.Push(f) {
		p.Stats.SendStalls.Inc()
		return
	}
	p.pending = p.pending[1:]
	p.Stats.FlitsSent.Inc()
}

// Deliver accepts one message flit ejected by the switch; it implements
// the receive interface of Fig. 2-b.
func (p *Port) Deliver(f flit.Flit) {
	if f.Type != flit.Message {
		panic("tie: non-message flit delivered to TIE port")
	}
	p.Stats.FlitsRecv.Inc()
	k := asmKey{src: int(f.Src), class: ClassOf(f)}
	a := p.asm[k]
	if a == nil {
		a = &assembler{}
		p.asm[k] = a
	}
	pkts, err := a.place(f)
	if err == errOverflow {
		p.Stats.Overflows.Inc()
		return
	}
	if err == errCorrupt {
		p.Stats.Corrupted.Inc()
	}
	for _, words := range pkts {
		q := p.ready[k]
		if q == nil {
			q = queue.NewFIFO[Packet](0)
			p.ready[k] = q
		}
		q.Push(Packet{Src: k.src, Class: k.class, Words: words})
		p.Stats.PacketsRecv.Inc()
	}
}

// TryRecv pops the oldest complete packet from src with the given class.
func (p *Port) TryRecv(src int, class Class) (Packet, bool) {
	q := p.ready[asmKey{src: src, class: class}]
	if q == nil {
		return Packet{}, false
	}
	return q.Pop()
}

// HasRecv reports, without consuming it, whether a complete packet from
// src with the given class is waiting. The core's fast-forward idle check
// uses it to stay passive only while a receive provably cannot complete.
func (p *Port) HasRecv(src int, class Class) bool {
	q := p.ready[asmKey{src: src, class: class}]
	return q != nil && q.Len() > 0
}

// HasRecvAny reports whether a complete packet of the given class from
// any source is waiting, without consuming it.
func (p *Port) HasRecvAny(class Class) bool {
	for src := 0; src < p.maxNodes; src++ {
		if p.HasRecv(src, class) {
			return true
		}
	}
	return false
}

// TryRecvAny pops the oldest complete packet of the given class from any
// source, scanning node ids in ascending order for determinism.
func (p *Port) TryRecvAny(class Class) (Packet, bool) {
	for src := 0; src < p.maxNodes; src++ {
		if pkt, ok := p.TryRecv(src, class); ok {
			return pkt, true
		}
	}
	return Packet{}, false
}
