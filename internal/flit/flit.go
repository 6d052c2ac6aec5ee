// Package flit defines the MEDEA network flit and its three-level protocol
// format (Fig. 5 of the paper):
//
//	level 1 (network):     V, X, Y                 — used by NoC switches
//	level 2 (bridge):      TYPE, SUBTYPE, SEQ-NUM  — memory-mapped transactions
//	level 3 (application): BURST, SRC-ID, DATA     — written/read by software
//
// The simulator passes the struct form around and never packs it: the
// field-width constants record the layout's bit budget, which bounds the
// packet length, the source id and the packet-index ring.
package flit

import (
	"fmt"
	"math"
)

// Type is the 3-bit transaction type field (level 2). Seven values are
// defined by the paper: six shared-memory transaction types plus one for
// generic message-passing packets.
type Type uint8

const (
	// SingleRead requests one 32-bit word from the MPMMU.
	SingleRead Type = iota
	// SingleWrite writes one 32-bit word to the MPMMU.
	SingleWrite
	// BlockRead requests a full cache line (4 words) from the MPMMU.
	BlockRead
	// BlockWrite writes a full cache line (4 words) to the MPMMU.
	BlockWrite
	// Lock requests exclusive ownership of a shared-memory word.
	Lock
	// Unlock releases exclusive ownership of a shared-memory word.
	Unlock
	// Message is a generic message-passing flit (TIE port traffic).
	Message

	numTypes = iota
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case SingleRead:
		return "single-read"
	case SingleWrite:
		return "single-write"
	case BlockRead:
		return "block-read"
	case BlockWrite:
		return "block-write"
	case Lock:
		return "lock"
	case Unlock:
		return "unlock"
	case Message:
		return "message"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Valid reports whether t is one of the seven defined transaction types.
func (t Type) Valid() bool { return t < numTypes }

// SubType is the 2-bit sub-type field. For shared-memory transactions it
// distinguishes Ack/Nack from Address/Data payloads; for message flits it
// distinguishes request tokens from generic data (the "Data/Req bit").
type SubType uint8

const (
	// SubAck marks an acknowledge (grant / completion) flit.
	SubAck SubType = iota
	// SubNack marks a negative acknowledge flit.
	SubNack
	// SubAddr marks a flit whose payload is an address (a request token).
	SubAddr
	// SubData marks a flit whose payload is data.
	SubData
)

// Message-passing aliases for the Data/Req bit: request packets (used for
// synchronization tokens) reuse the address encoding, data packets the data
// encoding.
const (
	// SubMsgReq marks a message flit belonging to a request/sync packet.
	SubMsgReq = SubAddr
	// SubMsgData marks a message flit belonging to a generic data packet.
	SubMsgData = SubData
)

// String implements fmt.Stringer.
func (s SubType) String() string {
	switch s {
	case SubAck:
		return "ack"
	case SubNack:
		return "nack"
	case SubAddr:
		return "addr/req"
	case SubData:
		return "data"
	}
	return fmt.Sprintf("sub(%d)", uint8(s))
}

// Field widths of the packed format fixed by the paper (the X/Y widths
// depend on the network size).
const (
	TypeBits   = 3
	SubBits    = 2
	SeqBits    = 4
	BurstBits  = 2
	SrcBits    = 4
	PktIdxBits = 2
	DataBits   = 32

	// MaxSeq is the largest sequence number (seq field is 4 bits), which
	// bounds the size of a logical packet to 16 flits.
	MaxSeq = 1<<SeqBits - 1
	// MaxLogicalPacket is the maximum number of flits in one logical
	// packet, bounded by the sequence-number field.
	MaxLogicalPacket = 1 << SeqBits
	// MaxSrc is the largest encodable source id (4 bits), which bounds the
	// system to 16 nodes, matching the paper's 4x4 folded torus.
	MaxSrc = 1<<SrcBits - 1
	// MaxCoord is the largest destination coordinate a flit can carry
	// (DstX and DstY are uint8), which bounds an endpoint grid to
	// MaxCoord+1 = 256 a side.
	MaxCoord = math.MaxUint8
	// NumPktIdx is the size of the receive-side packet-buffer ring
	// addressed by the packet-index field.
	NumPktIdx = 1 << PktIdxBits
)

// burstCodes maps the 2-bit burst field to a logical packet length in
// flits. The paper states the field is 2 bits wide and "indicates how many
// flits belonging to the same logic packet must be expected"; with the
// 4-bit sequence number allowing packets up to 16 flits, the four codes
// cover the packet sizes the system uses (1-flit tokens, 4-flit cache
// lines, and 8/16-flit bulk data fragments).
var burstCodes = [4]int{1, 4, 8, 16}

// EncodeBurst returns the 2-bit code for a logical packet of n flits.
// n must be one of 1, 4, 8, 16.
func EncodeBurst(n int) (uint8, error) {
	for code, v := range burstCodes {
		if v == n {
			return uint8(code), nil
		}
	}
	return 0, fmt.Errorf("flit: invalid logical packet length %d (want 1, 4, 8 or 16)", n)
}

// DecodeBurst returns the logical packet length in flits for a 2-bit code.
func DecodeBurst(code uint8) int { return burstCodes[code&3] }

// RoundUpBurst returns the smallest encodable packet length >= n.
func RoundUpBurst(n int) int {
	for _, v := range burstCodes {
		if v >= n {
			return v
		}
	}
	return MaxLogicalPacket
}

// Flit is one network flow-control unit. The exported fields up to Data are
// part of the hardware format; the Meta fields are simulation-only metadata
// used for statistics and integrity checking and are never packed.
type Flit struct {
	// Network level (level 1).
	DstX, DstY uint8

	// Bridge level (level 2).
	Type Type
	Sub  SubType
	Seq  uint8 // sequence number within the logical packet (4 bits)

	// Application level (level 3).
	Burst uint8 // 2-bit code, see EncodeBurst
	Src   uint8 // source node id (4 bits)
	// PktIdx is a rotating 2-bit logical-packet index that lets the
	// receiver assign out-of-order flits of *consecutive* packets from
	// the same source to distinct reassembly buffers. The paper's format
	// (Fig. 5) uses 52 of the 64 flit bits; this reproduction spends two
	// of the reserved bits here, generalizing the paper's double buffer
	// to a four-buffer ring (see DESIGN.md).
	PktIdx uint8
	Data   uint32 // 32-bit payload

	Meta Meta
}

// Meta carries simulation-only bookkeeping. It is not part of the hardware
// flit format.
type Meta struct {
	InjectCycle int64  // cycle the flit entered the network
	Hops        int32  // links traversed so far
	Deflections int32  // unproductive hops so far
	PacketID    uint64 // unique logical-packet id for integrity checks
	// VC is the virtual channel the flit occupies on its current link.
	// Only the wormhole router uses it (a real implementation carries it
	// as link sideband wiring, not in the flit format); all other routers
	// leave it zero.
	VC uint8
}

// BurstLen returns the logical packet length in flits encoded in the flit's
// burst field.
func (f Flit) BurstLen() int { return DecodeBurst(f.Burst) }

// String implements fmt.Stringer.
func (f Flit) String() string {
	return fmt.Sprintf("flit{->(%d,%d) %v/%v seq=%d burst=%d src=%d data=%#x}",
		f.DstX, f.DstY, f.Type, f.Sub, f.Seq, f.BurstLen(), f.Src, f.Data)
}
