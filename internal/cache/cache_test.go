package cache

import (
	"bytes"
	"testing"
)

func mustNew(t *testing.T, kb int, p Policy) *Cache {
	t.Helper()
	c, err := New(KB(kb, p))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func line16(seed byte) []byte {
	b := make([]byte, LineBytes)
	for i := range b {
		b[i] = seed + byte(i)
	}
	return b
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{SizeBytes: 0}); err == nil {
		t.Error("zero size should fail")
	}
	if _, err := New(Config{SizeBytes: 24}); err == nil {
		t.Error("non-multiple of line size should fail")
	}
	if _, err := New(Config{SizeBytes: 48}); err == nil {
		t.Error("non-power-of-two line count should fail")
	}
	c := mustNew(t, 2, WriteBack)
	if c.SizeBytes() != 2048 || c.Policy() != WriteBack {
		t.Error("config accessors wrong")
	}
}

func TestLineAddr(t *testing.T) {
	if LineAddr(0x1237) != 0x1230 {
		t.Errorf("LineAddr(0x1237) = %#x", LineAddr(0x1237))
	}
}

func TestFillLookupRead(t *testing.T) {
	c := mustNew(t, 2, WriteBack)
	addr := uint32(0x1000)
	if c.Lookup(addr) {
		t.Fatal("empty cache must miss")
	}
	c.Fill(addr, line16(7))
	if !c.Lookup(addr) {
		t.Fatal("fill then lookup must hit")
	}
	got := make([]byte, 4)
	c.ReadInto(addr+4, got)
	want := line16(7)[4:8]
	if !bytes.Equal(got, want) {
		t.Errorf("ReadInto = %v, want %v", got, want)
	}
	if c.Stats.Hits.Value() != 1 || c.Stats.Misses.Value() != 1 {
		t.Errorf("stats hits=%d misses=%d", c.Stats.Hits.Value(), c.Stats.Misses.Value())
	}
}

func TestConflictEviction(t *testing.T) {
	c := mustNew(t, 2, WriteBack) // 128 lines
	a := uint32(0x0000)
	b := a + 2048 // same index, different tag
	c.Fill(a, line16(1))
	c.WriteWord(a, 0xAABBCCDD) // dirty
	data := make([]byte, LineBytes)
	victim, dirty := c.VictimInto(b, data)
	if !dirty || victim != a {
		t.Fatalf("victim = %#x (dirty %v), want dirty line at %#x", victim, dirty, a)
	}
	if got := data[0:4]; binaryWord(got) != 0xAABBCCDD {
		t.Error("victim data must reflect the dirty write")
	}
	c.Fill(b, line16(9))
	if c.Probe(a) {
		t.Error("evicted line still resident")
	}
	if !c.Probe(b) {
		t.Error("new line not resident")
	}
	if c.Stats.Evictions.Value() != 1 || c.Stats.Writebacks.Value() != 1 {
		t.Error("eviction stats not recorded")
	}
}

func binaryWord(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func TestWritePolicyDirtyBit(t *testing.T) {
	wb := mustNew(t, 2, WriteBack)
	wt := mustNew(t, 2, WriteThrough)
	addr := uint32(0x40)
	for _, c := range []*Cache{wb, wt} {
		c.Fill(addr, line16(0))
		c.WriteWord(addr, 1)
	}
	buf := make([]byte, LineBytes)
	if !wb.FlushLineInto(addr, buf) {
		t.Error("write-back store must mark the line dirty")
	}
	if wt.FlushLineInto(addr, buf) {
		t.Error("write-through store must not mark the line dirty")
	}
}

func TestFlushLine(t *testing.T) {
	c := mustNew(t, 2, WriteBack)
	addr := uint32(0x80)
	c.Fill(addr, line16(3))
	c.WriteWord(addr+8, 0x11223344)
	data := make([]byte, LineBytes)
	if !c.FlushLineInto(addr, data) {
		t.Fatal("flush of dirty line must return data")
	}
	if binaryWord(data[8:12]) != 0x11223344 {
		t.Error("flushed data wrong")
	}
	// Line stays resident but clean.
	if !c.Probe(addr) {
		t.Error("flush must keep the line resident")
	}
	if c.FlushLineInto(addr, data) {
		t.Error("second flush must be clean")
	}
}

func TestInvalidateLine(t *testing.T) {
	c := mustNew(t, 2, WriteBack)
	addr := uint32(0xC0)
	c.Fill(addr, line16(5))
	if !c.InvalidateLine(addr) {
		t.Fatal("invalidate of resident line must report true")
	}
	if c.Probe(addr) {
		t.Error("invalidated line still resident")
	}
	if c.InvalidateLine(addr) {
		t.Error("invalidate of absent line must report false")
	}
}

func TestDirtyLines(t *testing.T) {
	c := mustNew(t, 2, WriteBack)
	addrs := []uint32{0x100, 0x200, 0x300}
	for _, a := range addrs {
		c.Fill(a, line16(byte(a)))
	}
	c.WriteWord(0x100, 1)
	c.WriteWord(0x300, 1)
	d := c.DirtyLines()
	if len(d) != 2 || d[0] != 0x100 || d[1] != 0x300 {
		t.Errorf("DirtyLines = %#x", d)
	}
}

func TestCrossLinePanics(t *testing.T) {
	c := mustNew(t, 2, WriteBack)
	c.Fill(0, line16(0))
	defer func() {
		if recover() == nil {
			t.Error("cross-line access should panic")
		}
	}()
	c.ReadInto(12, make([]byte, 8)) // bytes 12..20 cross the 16-byte boundary
}

func TestNonResidentAccessPanics(t *testing.T) {
	c := mustNew(t, 2, WriteBack)
	defer func() {
		if recover() == nil {
			t.Error("access to non-resident line should panic")
		}
	}()
	c.ReadWord(0x500)
}

func TestMissRate(t *testing.T) {
	c := mustNew(t, 2, WriteBack)
	if c.Stats.MissRate() != 0 {
		t.Error("no accesses: miss rate 0")
	}
	c.Lookup(0) // miss
	c.Fill(0, line16(0))
	c.Lookup(0) // hit
	c.Lookup(4) // hit
	if mr := c.Stats.MissRate(); mr < 0.32 || mr > 0.34 {
		t.Errorf("miss rate %v, want 1/3", mr)
	}
}

func TestWordRoundTrip(t *testing.T) {
	c := mustNew(t, 2, WriteBack)
	c.Fill(0x40, make([]byte, LineBytes))
	c.WriteWord(0x44, 0xCAFEBABE)
	if got := c.ReadWord(0x44); got != 0xCAFEBABE {
		t.Errorf("got %#x", got)
	}
	if got := c.ReadWord(0x40); got != 0 {
		t.Errorf("neighbouring word clobbered: %#x", got)
	}
}

func TestPolicyString(t *testing.T) {
	if WriteBack.String() != "WB" || WriteThrough.String() != "WT" {
		t.Error("policy strings wrong")
	}
}
