package cache

import (
	"encoding/binary"
	"testing"

	"repro/internal/sim"
)

func mustNewWays(t *testing.T, kb, ways int, p Policy) *Cache {
	t.Helper()
	c, err := New(Config{SizeBytes: kb << 10, Policy: p, Ways: ways})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestWaysValidation(t *testing.T) {
	for _, ways := range []int{3, -1, 256} {
		if _, err := New(Config{SizeBytes: 2048, Ways: ways}); err == nil {
			t.Errorf("ways=%d accepted", ways)
		}
	}
	c := mustNewWays(t, 2, 2, WriteBack)
	if c.Ways() != 2 {
		t.Errorf("Ways() = %d", c.Ways())
	}
	if d := mustNew(t, 2, WriteBack); d.Ways() != 1 {
		t.Error("default must be direct-mapped")
	}
}

func TestTwoWayHoldsConflictingLines(t *testing.T) {
	// Two addresses that conflict in a direct-mapped cache coexist in a
	// 2-way cache.
	dm := mustNew(t, 2, WriteBack)
	tw := mustNewWays(t, 2, 2, WriteBack)
	a := uint32(0x0000)
	b := a + 2048 // same direct-mapped index
	for _, c := range []*Cache{dm, tw} {
		c.Fill(a, line16(1))
		c.Fill(b, line16(2))
	}
	if dm.Probe(a) {
		t.Error("direct-mapped kept both conflicting lines")
	}
	if !tw.Probe(a) || !tw.Probe(b) {
		t.Error("2-way cache evicted a line it had room for")
	}
}

func TestLRUReplacement(t *testing.T) {
	c := mustNewWays(t, 2, 2, WriteBack)
	// Three same-set addresses (set stride = numSets*LineBytes = 1 kB for
	// a 2 kB 2-way cache).
	a, b, d := uint32(0), uint32(1024), uint32(2048)
	c.Fill(a, line16(1))
	c.Fill(b, line16(2))
	c.ReadWord(a) // touch a: b becomes LRU
	c.Fill(d, line16(3))
	if !c.Probe(a) {
		t.Error("recently used line evicted")
	}
	if c.Probe(b) {
		t.Error("LRU line survived")
	}
	if !c.Probe(d) {
		t.Error("filled line absent")
	}
}

func TestVictimForAgreesWithFill(t *testing.T) {
	c := mustNewWays(t, 2, 4, WriteBack)
	// 2 kB, 4 ways: 128 lines / 4 = 32 sets, so same-set addresses are
	// numSets*LineBytes = 512 bytes apart.
	const setStride = 32 * LineBytes
	base := uint32(0)
	for w := uint32(0); w < 4; w++ {
		c.Fill(base+w*setStride, line16(byte(w)))
	}
	c.WriteWord(base, 0xDD) // dirty way holding 'base', also makes it MRU
	if _, dirty := c.VictimInto(base+4*setStride, make([]byte, LineBytes)); dirty {
		t.Fatal("victim should be a clean LRU way, not the dirty MRU one")
	}
	c.Fill(base+4*setStride, line16(9))
	if !c.Probe(base) {
		t.Error("dirty MRU line was evicted despite clean LRU candidates")
	}
}

// TestGoldenModelAssociative replays the golden-model property test for
// 2- and 4-way configurations.
func TestGoldenModelAssociative(t *testing.T) {
	for _, ways := range []int{2, 4} {
		for _, pol := range []Policy{WriteBack, WriteThrough} {
			ways, pol := ways, pol
			t.Run(pol.String()+"-"+string(rune('0'+ways))+"w", func(t *testing.T) {
				const memWords = 1 << 11
				golden := make([]uint32, memWords)
				backing := make([]uint32, memWords)
				c := mustNewWays(t, 2, ways, pol)
				var buf [LineBytes]byte
				readLine := func(addr uint32) []byte {
					b := make([]byte, LineBytes)
					for i := 0; i < 4; i++ {
						binary.LittleEndian.PutUint32(b[4*i:], backing[addr/4+uint32(i)])
					}
					return b
				}
				writeLine := func(addr uint32, data []byte) {
					for i := 0; i < 4; i++ {
						backing[addr/4+uint32(i)] = binary.LittleEndian.Uint32(data[4*i:])
					}
				}
				ensure := func(addr uint32) {
					if !c.Probe(addr) {
						ln := LineAddr(addr)
						if victim, dirty := c.VictimInto(ln, buf[:]); dirty {
							writeLine(victim, buf[:])
						}
						c.Fill(ln, readLine(ln))
					}
				}
				rng := sim.NewRNG(int64(ways * 77))
				for i := 0; i < 60000; i++ {
					addr := uint32(rng.Intn(memWords)) * 4
					if rng.Intn(2) == 0 {
						ensure(addr)
						if got := c.ReadWord(addr); got != golden[addr/4] {
							t.Fatalf("op %d: read %#x = %#x want %#x", i, addr, got, golden[addr/4])
						}
					} else {
						v := uint32(rng.Uint64())
						ensure(addr)
						c.WriteWord(addr, v)
						if pol == WriteThrough {
							backing[addr/4] = v
						}
						golden[addr/4] = v
					}
				}
				for _, a := range c.DirtyLines() {
					if c.FlushLineInto(a, buf[:]) {
						writeLine(a, buf[:])
					}
				}
				for w := range golden {
					if golden[w] != backing[w] {
						t.Fatalf("word %d: %#x != %#x", w, backing[w], golden[w])
					}
				}
			})
		}
	}
}

// TestLRULoopThrashes: a loop over more data than the cache holds is the
// access pattern where associativity costs hits. Sweeping 10 kB line by
// line through 8 kB, a direct-mapped cache keeps the 6 kB whose sets only
// one line of the loop maps to and misses on the rest; LRU evicts each
// line of an overfull set just before the loop comes back to it, so
// 2-way keeps only the sets the loop fills exactly and 4-way keeps
// nothing. This is why 4-way L1s miss more often than direct-mapped ones
// in the A-5 Jacobi ablation (internal/jacobi), where each core sweeps
// about 11.5 kB through 8 kB.
func TestLRULoopThrashes(t *testing.T) {
	const footprint = 10 << 10
	for _, c := range []struct{ ways, misses int }{
		{1, 256}, // the 4 kB of 0-2 kB and 8-10 kB, which share sets
		{2, 384}, // the sets holding three of the loop's lines
		{4, 640}, // every line: five per set, four ways
	} {
		cc := mustNewWays(t, 8, c.ways, WriteBack)
		misses := 0
		for pass := 0; pass < 3; pass++ {
			misses = 0
			for addr := uint32(0); addr < footprint; addr += LineBytes {
				if cc.Lookup(addr) {
					cc.ReadWord(addr) // a hit is a use
				} else {
					misses++
					cc.Fill(addr, line16(0))
				}
			}
		}
		if misses != c.misses {
			t.Errorf("%d-way: %d of %d lines missed on a warm pass, want %d", c.ways, misses, footprint/LineBytes, c.misses)
		}
	}
}
