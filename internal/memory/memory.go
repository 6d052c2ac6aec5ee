// Package memory models the external DDR memory behind the MPMMU: a sparse
// byte-addressable store with a simple latency model (fixed access cost
// plus a per-word streaming cost). The store moves real bytes so that the
// workloads running on the simulated system produce real, checkable
// numerical results.
package memory

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/stats"
)

const pageSize = 1 << 12

// LatencyModel describes DDR timing as seen by the MPMMU.
type LatencyModel struct {
	// AccessCycles is the fixed cost of starting an access (row activate,
	// controller overhead).
	AccessCycles int64
	// PerWordCycles is the additional cost per 32-bit word transferred.
	PerWordCycles int64
}

// DefaultLatency is the timing used unless a configuration overrides it:
// a DDR access costs ~50 core cycles plus one cycle per streamed word,
// a typical ratio for the paper's 2010-era on-chip/off-chip gap.
var DefaultLatency = LatencyModel{AccessCycles: 50, PerWordCycles: 1}

// Cost returns the cycle cost of transferring words 32-bit words.
func (m LatencyModel) Cost(words int) int64 {
	return m.AccessCycles + m.PerWordCycles*int64(words)
}

// DDR is a sparse byte-addressable memory.
type DDR struct {
	Latency LatencyModel
	pages   map[uint32]*[pageSize]byte

	Reads  stats.Counter // word reads
	Writes stats.Counter // word writes
}

// NewDDR returns an empty memory with the given latency model.
func NewDDR(lat LatencyModel) *DDR {
	return &DDR{Latency: lat, pages: make(map[uint32]*[pageSize]byte)}
}

func (d *DDR) page(addr uint32) *[pageSize]byte {
	base := addr &^ (pageSize - 1)
	p := d.pages[base]
	if p == nil {
		p = new([pageSize]byte)
		d.pages[base] = p
	}
	return p
}

// ReadInto copies len(dst) bytes starting at addr into dst without
// allocating, chunking by page so the page lookup runs once per page
// touched rather than once per byte.
func (d *DDR) ReadInto(addr uint32, dst []byte) {
	d.Reads.Add(int64((len(dst) + 3) / 4))
	for len(dst) > 0 {
		off := int(addr & (pageSize - 1))
		n := copy(dst, d.page(addr)[off:])
		addr += uint32(n)
		dst = dst[n:]
	}
}

// Write stores the bytes of b starting at addr.
func (d *DDR) Write(addr uint32, b []byte) {
	d.Writes.Add(int64((len(b) + 3) / 4))
	for len(b) > 0 {
		off := int(addr & (pageSize - 1))
		n := copy(d.page(addr)[off:], b)
		addr += uint32(n)
		b = b[n:]
	}
}

// ReadWord reads a 32-bit little-endian word. addr must be 4-aligned.
func (d *DDR) ReadWord(addr uint32) uint32 {
	mustAlign(addr, 4)
	var b [4]byte
	d.ReadInto(addr, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// WriteWord writes a 32-bit little-endian word. addr must be 4-aligned.
func (d *DDR) WriteWord(addr uint32, v uint32) {
	mustAlign(addr, 4)
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	d.Write(addr, b[:])
}

// ReadFloat64 reads an 8-byte IEEE-754 double. addr must be 8-aligned.
func (d *DDR) ReadFloat64(addr uint32) float64 {
	mustAlign(addr, 8)
	var b [8]byte
	d.ReadInto(addr, b[:])
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
}

// WriteFloat64 writes an 8-byte IEEE-754 double. addr must be 8-aligned.
func (d *DDR) WriteFloat64(addr uint32, v float64) {
	mustAlign(addr, 8)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	d.Write(addr, b[:])
}

func mustAlign(addr uint32, n uint32) {
	if addr%n != 0 {
		panic(fmt.Sprintf("memory: address %#x not %d-aligned", addr, n))
	}
}
