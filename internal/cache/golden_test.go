package cache

import (
	"encoding/binary"
	"testing"

	"repro/internal/sim"
)

// TestGoldenModel property-tests the cache against a flat memory model
// under a random stream of reads, writes, flushes and invalidates, for
// both policies. The combined system (cache + backing memory with
// write-back on eviction) must always return what the flat model returns.
func TestGoldenModel(t *testing.T) {
	for _, pol := range []Policy{WriteBack, WriteThrough} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			const memWords = 1 << 12 // 16 KiB footprint, 2 KiB cache: heavy conflicts
			golden := make([]uint32, memWords)
			backing := make([]uint32, memWords)
			c := mustNew(t, 2, pol)
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
					line := LineAddr(addr)
					if victim, dirty := c.VictimInto(line, buf[:]); dirty {
						writeLine(victim, buf[:])
					}
					c.Fill(line, readLine(line))
				}
			}

			rng := sim.NewRNG(2024)
			for i := 0; i < 200000; i++ {
				addr := uint32(rng.Intn(memWords)) * 4
				switch rng.Intn(10) {
				case 0, 1, 2, 3: // read
					ensure(addr)
					if got := c.ReadWord(addr); got != golden[addr/4] {
						t.Fatalf("op %d: read %#x = %#x, want %#x", i, addr, got, golden[addr/4])
					}
				case 4, 5, 6: // write
					v := uint32(rng.Uint64())
					ensure(addr)
					c.WriteWord(addr, v)
					if pol == WriteThrough {
						backing[addr/4] = v
					}
					golden[addr/4] = v
				case 7: // flush
					if c.FlushLineInto(addr, buf[:]) {
						writeLine(LineAddr(addr), buf[:])
					}
				case 8: // invalidate: only safe when the line is clean in
					// the golden sense (write-back dirty data would be
					// lost, which is the documented hazard of DII), so
					// flush first.
					if c.FlushLineInto(addr, buf[:]) {
						writeLine(LineAddr(addr), buf[:])
					}
					c.InvalidateLine(addr)
				case 9: // re-read after invalidate to check memory path
					if c.FlushLineInto(addr, buf[:]) {
						writeLine(LineAddr(addr), buf[:])
					}
					c.InvalidateLine(addr)
					ensure(addr)
					if got := c.ReadWord(addr); got != golden[addr/4] {
						t.Fatalf("op %d: post-DII read %#x = %#x, want %#x", i, addr, got, golden[addr/4])
					}
				}
			}

			// Drain: flush everything and compare backing to golden.
			for _, a := range c.DirtyLines() {
				if c.FlushLineInto(a, buf[:]) {
					writeLine(a, buf[:])
				}
			}
			for w := range golden {
				if golden[w] != backing[w] {
					t.Fatalf("word %d: backing %#x, golden %#x", w, backing[w], golden[w])
				}
			}
		})
	}
}
