package memory

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestReadWriteBytes(t *testing.T) {
	d := NewDDR(DefaultLatency)
	data := []byte{1, 2, 3, 4, 5}
	d.Write(0x1000, data)
	got := make([]byte, 5)
	d.ReadInto(0x1000, got)
	if !bytes.Equal(got, data) {
		t.Errorf("got %v", got)
	}
	// Untouched memory reads zero.
	got = make([]byte, 4)
	d.ReadInto(0x2000, got)
	if !bytes.Equal(got, []byte{0, 0, 0, 0}) {
		t.Errorf("fresh memory not zero: %v", got)
	}
}

func TestCrossPageAccess(t *testing.T) {
	d := NewDDR(DefaultLatency)
	addr := uint32(0x1000 - 2) // straddles a 4 KiB page boundary
	d.Write(addr, []byte{9, 8, 7, 6})
	got := make([]byte, 4)
	d.ReadInto(addr, got)
	if !bytes.Equal(got, []byte{9, 8, 7, 6}) {
		t.Errorf("cross-page round trip failed: %v", got)
	}
}

func TestWordAccessors(t *testing.T) {
	d := NewDDR(DefaultLatency)
	d.WriteWord(0x100, 0xDEADBEEF)
	if got := d.ReadWord(0x100); got != 0xDEADBEEF {
		t.Errorf("got %#x", got)
	}
}

func TestFloat64Accessors(t *testing.T) {
	d := NewDDR(DefaultLatency)
	d.WriteFloat64(0x200, 3.14159)
	if got := d.ReadFloat64(0x200); got != 3.14159 {
		t.Errorf("got %v", got)
	}
}

func TestAlignmentPanics(t *testing.T) {
	d := NewDDR(DefaultLatency)
	for _, fn := range []func(){
		func() { d.ReadWord(2) },
		func() { d.WriteWord(2, 0) },
		func() { d.ReadFloat64(4) },
		func() { d.WriteFloat64(12, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("unaligned access should panic")
				}
			}()
			fn()
		}()
	}
}

func TestLatencyCost(t *testing.T) {
	m := LatencyModel{AccessCycles: 50, PerWordCycles: 2}
	if got := m.Cost(4); got != 58 {
		t.Errorf("Cost(4) = %d, want 58", got)
	}
}

func TestAccessCounters(t *testing.T) {
	d := NewDDR(DefaultLatency)
	d.WriteWord(0, 1)
	d.ReadWord(0)
	d.ReadInto(0, make([]byte, 16))
	if d.Writes.Value() != 1 {
		t.Errorf("writes = %d", d.Writes.Value())
	}
	if d.Reads.Value() != 1+4 {
		t.Errorf("reads = %d", d.Reads.Value())
	}
}

// TestSparseRoundTripQuick property-tests that writes at arbitrary
// addresses read back identically.
func TestSparseRoundTripQuick(t *testing.T) {
	d := NewDDR(DefaultLatency)
	fn := func(addr uint32, val uint32) bool {
		a := addr &^ 3
		d.WriteWord(a, val)
		return d.ReadWord(a) == val
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
