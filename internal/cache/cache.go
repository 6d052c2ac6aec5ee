// Package cache models the per-core L1 data cache: direct-mapped, 16-byte
// lines (the paper's Xtensa configuration), configurable capacity from 2 kB
// to 64 kB, and either write-back or write-through policy. The cache holds
// real data bytes; coherency for the shared segment is managed by software
// through the FlushLine and InvalidateLine operations (the Xtensa DII
// instruction), exactly as the paper's programming model prescribes.
package cache

import (
	"encoding/binary"
	"fmt"

	"repro/internal/stats"
)

// Policy selects the write policy.
type Policy int

const (
	// WriteBack allocates on write miss and writes dirty victims back on
	// eviction.
	WriteBack Policy = iota
	// WriteThrough sends every store to memory and never holds dirty
	// data; write misses do not allocate.
	WriteThrough
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	if p == WriteBack {
		return "WB"
	}
	return "WT"
}

// LineBytes is the fixed cache-line size: 16 bytes = four 32-bit words,
// matching the paper's block transfers.
const LineBytes = 16

// Config sizes a cache.
type Config struct {
	SizeBytes int
	Policy    Policy
	// Ways is the set associativity with LRU replacement; 0 or 1 means
	// direct-mapped (the reproduction's default — the paper does not
	// state the Xtensa configuration's associativity, and all calibrated
	// experiments use direct-mapped). Higher associativity is provided
	// for architecture exploration (A-5, internal/jacobi's
	// TestArchitectureAblations).
	Ways int
}

// KB is a convenience constructor for a direct-mapped Config with size in
// kilobytes.
func KB(kb int, p Policy) Config { return Config{SizeBytes: kb << 10, Policy: p} }

// Stats counts cache events.
type Stats struct {
	Hits        stats.Counter
	Misses      stats.Counter
	Evictions   stats.Counter // total victims replaced
	Writebacks  stats.Counter // dirty victims written back
	Flushes     stats.Counter
	Invalidates stats.Counter
}

// MissRate returns misses / (hits + misses), or 0 with no accesses.
func (s *Stats) MissRate() float64 {
	total := s.Hits.Value() + s.Misses.Value()
	if total == 0 {
		return 0
	}
	return float64(s.Misses.Value()) / float64(total)
}

type line struct {
	valid, dirty bool
	tag          uint32
	lastUse      uint64
	data         [LineBytes]byte
}

// Cache is a set-associative L1 cache with LRU replacement (direct-mapped
// in the default 1-way configuration).
type Cache struct {
	cfg      Config
	ways     int
	numSets  int
	numLines int
	tick     uint64
	lines    []line // [set*ways + way]

	Stats Stats
}

// New builds a cache. SizeBytes must be a positive multiple of LineBytes,
// the line count a power of two (all paper configurations are), and the
// way count a power-of-two divisor of the line count.
func New(cfg Config) (*Cache, error) {
	if cfg.SizeBytes <= 0 || cfg.SizeBytes%LineBytes != 0 {
		return nil, fmt.Errorf("cache: size %d not a positive multiple of %d", cfg.SizeBytes, LineBytes)
	}
	n := cfg.SizeBytes / LineBytes
	if n&(n-1) != 0 {
		return nil, fmt.Errorf("cache: %d lines is not a power of two", n)
	}
	ways := cfg.Ways
	if ways == 0 {
		ways = 1
	}
	if ways < 0 || ways&(ways-1) != 0 || n%ways != 0 || n/ways < 1 {
		return nil, fmt.Errorf("cache: %d ways invalid for %d lines", ways, n)
	}
	return &Cache{cfg: cfg, ways: ways, numSets: n / ways, numLines: n, lines: make([]line, n)}, nil
}

// Ways returns the configured associativity.
func (c *Cache) Ways() int { return c.ways }

// Policy returns the configured write policy.
func (c *Cache) Policy() Policy { return c.cfg.Policy }

// SizeBytes returns the configured capacity.
func (c *Cache) SizeBytes() int { return c.cfg.SizeBytes }

// LineAddr returns the line-aligned base address containing addr.
func LineAddr(addr uint32) uint32 { return addr &^ (LineBytes - 1) }

func (c *Cache) set(addr uint32) int {
	return int(addr/LineBytes) & (c.numSets - 1)
}

func (c *Cache) tag(addr uint32) uint32 {
	return addr / LineBytes / uint32(c.numSets)
}

// find returns the resident line holding addr, or nil.
func (c *Cache) find(addr uint32) *line {
	set, tag := c.set(addr), c.tag(addr)
	for w := 0; w < c.ways; w++ {
		l := &c.lines[set*c.ways+w]
		if l.valid && l.tag == tag {
			return l
		}
	}
	return nil
}

// victimSlot returns the slot a fill of addr would use: an invalid way if
// one exists, else the least-recently-used way of the set.
func (c *Cache) victimSlot(addr uint32) *line {
	set := c.set(addr)
	var victim *line
	for w := 0; w < c.ways; w++ {
		l := &c.lines[set*c.ways+w]
		if !l.valid {
			return l
		}
		if victim == nil || l.lastUse < victim.lastUse {
			victim = l
		}
	}
	return victim
}

// Probe reports whether addr hits in the cache without updating stats.
func (c *Cache) Probe(addr uint32) bool {
	return c.find(addr) != nil
}

// Lookup reports a hit or miss for addr and updates statistics. It does not
// change cache contents.
func (c *Cache) Lookup(addr uint32) bool {
	if c.Probe(addr) {
		c.Stats.Hits.Inc()
		return true
	}
	c.Stats.Misses.Inc()
	return false
}

// VictimInto reports the write-back a Fill of addr needs: when the line
// the fill would replace is valid and dirty, its bytes are copied into
// dst (len(dst) >= LineBytes) and its base address returned with
// needsWriteback true.
func (c *Cache) VictimInto(addr uint32, dst []byte) (victimAddr uint32, needsWriteback bool) {
	l := c.victimSlot(addr)
	if !l.valid || !l.dirty {
		return 0, false
	}
	base := (l.tag*uint32(c.numSets) + uint32(c.set(addr))) * LineBytes
	copy(dst[:LineBytes], l.data[:])
	return base, true
}

// Fill installs the 16-byte line containing addr into the slot VictimInto
// reported on. data must be the full line at LineAddr(addr). The caller is
// responsible for writing back the victim first (see VictimInto).
func (c *Cache) Fill(addr uint32, data []byte) {
	if len(data) != LineBytes {
		panic(fmt.Sprintf("cache: fill with %d bytes", len(data)))
	}
	l := c.victimSlot(addr)
	if l.valid {
		c.Stats.Evictions.Inc()
		if l.dirty {
			c.Stats.Writebacks.Inc()
		}
	}
	l.valid = true
	l.dirty = false
	l.tag = c.tag(addr)
	c.tick++
	l.lastUse = c.tick
	copy(l.data[:], data)
}

// mustLine returns the hitting line for addr (touching its LRU state) or
// panics: callers must have established a hit first.
func (c *Cache) mustLine(addr uint32) *line {
	l := c.find(addr)
	if l == nil {
		panic(fmt.Sprintf("cache: access to non-resident address %#x", addr))
	}
	c.tick++
	l.lastUse = c.tick
	return l
}

// ReadInto copies len(dst) bytes at addr out of a resident line into dst
// without allocating. addr..addr+len(dst) must stay inside one line.
func (c *Cache) ReadInto(addr uint32, dst []byte) {
	checkSpan(addr, len(dst))
	l := c.mustLine(addr)
	off := addr & (LineBytes - 1)
	copy(dst, l.data[off:int(off)+len(dst)])
}

// Write stores bytes into a resident line. For WriteBack the line is marked
// dirty; for WriteThrough the caller must also send the store to memory.
func (c *Cache) Write(addr uint32, b []byte) {
	checkSpan(addr, len(b))
	l := c.mustLine(addr)
	off := addr & (LineBytes - 1)
	copy(l.data[off:int(off)+len(b)], b)
	if c.cfg.Policy == WriteBack {
		l.dirty = true
	}
}

// ReadWord reads a resident 32-bit word without allocating.
func (c *Cache) ReadWord(addr uint32) uint32 {
	return uint32(c.ReadUint(addr, 4))
}

// ReadUint reads a resident 4- or 8-byte value without allocating; it is
// the simulator's hot path.
func (c *Cache) ReadUint(addr uint32, size int) uint64 {
	checkSpan(addr, size)
	l := c.mustLine(addr)
	off := addr & (LineBytes - 1)
	if size == 8 {
		return binary.LittleEndian.Uint64(l.data[off:])
	}
	return uint64(binary.LittleEndian.Uint32(l.data[off:]))
}

// WriteUint writes a resident 4- or 8-byte value without allocating. For
// WriteBack the line is marked dirty; for WriteThrough the caller must
// also send the store to memory.
func (c *Cache) WriteUint(addr uint32, size int, v uint64) {
	checkSpan(addr, size)
	l := c.mustLine(addr)
	off := addr & (LineBytes - 1)
	if size == 8 {
		binary.LittleEndian.PutUint64(l.data[off:], v)
	} else {
		binary.LittleEndian.PutUint32(l.data[off:], uint32(v))
	}
	if c.cfg.Policy == WriteBack {
		l.dirty = true
	}
}

// WriteWord writes a resident 32-bit word.
func (c *Cache) WriteWord(addr uint32, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	c.Write(addr, b[:])
}

// FlushLineInto implements the software cache-flush of a line without
// allocating: if the line containing addr is resident and dirty, its bytes
// are copied into dst (len(dst) >= LineBytes) for write-back and the line
// is marked clean (it stays valid). ok reports whether a write-back is
// required.
func (c *Cache) FlushLineInto(addr uint32, dst []byte) (ok bool) {
	c.Stats.Flushes.Inc()
	l := c.find(addr)
	if l == nil || !l.dirty {
		return false
	}
	l.dirty = false
	copy(dst[:LineBytes], l.data[:])
	return true
}

// InvalidateLine implements the DII instruction: the line containing addr
// is dropped without write-back, forcing the next access to fetch from
// system memory. It reports whether a line was actually invalidated.
func (c *Cache) InvalidateLine(addr uint32) bool {
	c.Stats.Invalidates.Inc()
	l := c.find(addr)
	if l == nil {
		return false
	}
	l.valid = false
	l.dirty = false
	return true
}

// DirtyLines returns the base addresses of all dirty lines, in set order.
// Used by tests and end-of-run flushes.
func (c *Cache) DirtyLines() []uint32 {
	var out []uint32
	for i := range c.lines {
		l := &c.lines[i]
		if l.valid && l.dirty {
			set := uint32(i / c.ways)
			out = append(out, (l.tag*uint32(c.numSets)+set)*LineBytes)
		}
	}
	return out
}

func checkSpan(addr uint32, n int) {
	if n <= 0 || int(addr&(LineBytes-1))+n > LineBytes {
		panic(fmt.Sprintf("cache: access at %#x size %d crosses a line", addr, n))
	}
}
