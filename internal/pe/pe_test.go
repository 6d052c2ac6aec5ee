package pe

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestDefaultCostMatchesPaper(t *testing.T) {
	// The paper: double-precision adds/subtracts average 19 cycles;
	// multiplies average 26 cycles with the Multiply High option.
	if DefaultCost.FPAdd != 19 {
		t.Errorf("FPAdd = %d, want 19", DefaultCost.FPAdd)
	}
	if DefaultCost.FPMul != 26 {
		t.Errorf("FPMul = %d, want 26", DefaultCost.FPMul)
	}
	if DefaultCost.CacheHit != 1 || DefaultCost.IntOp != 1 {
		t.Error("single-cycle hits and integer ops expected")
	}
}

func TestMulHighOff(t *testing.T) {
	// Without Multiply High the paper quotes 60-cycle multiplies.
	c := MulHighOff()
	if c.FPMul != 60 {
		t.Errorf("FPMul = %d, want 60", c.FPMul)
	}
	if c.FPAdd != DefaultCost.FPAdd {
		t.Error("other costs must be unchanged")
	}
}

// roundTrip encodes words to bytes and back through the two converters.
func roundTrip(words []uint32) []uint32 {
	b := make([]byte, 4*len(words))
	bytesOf(b, words)
	back := make([]uint32, len(words))
	wordsOf(back, b)
	return back
}

func TestWordsBytesRoundTrip(t *testing.T) {
	words := []uint32{0x01020304, 0xA0B0C0D0, 0, 0xFFFFFFFF}
	b := make([]byte, 16)
	bytesOf(b, words)
	if b[0] != 0x04 || b[3] != 0x01 {
		t.Fatalf("bytesOf is not little-endian: % x", b[:4])
	}
	if back := roundTrip(words); !slices.Equal(back, words) {
		t.Fatalf("round trip: %#x != %#x", back, words)
	}
}

func TestWordsBytesQuick(t *testing.T) {
	fn := func(words []uint32) bool { return slices.Equal(roundTrip(words), words) }
	if err := quick.Check(fn, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestWordsOfRejectsRagged(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-word-multiple byte slice should panic")
		}
	}()
	wordsOf(make([]uint32, 1), make([]byte, 7))
}

func TestCheckAlign(t *testing.T) {
	// Legal cases must not panic.
	checkAlign(0x1000, 4)
	checkAlign(0x1008, 8)
	for _, c := range []struct {
		addr uint32
		size int
	}{{2, 4}, {4, 8}, {0, 3}, {0, 16}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("checkAlign(%#x, %d) should panic", c.addr, c.size)
				}
			}()
			checkAlign(c.addr, c.size)
		}()
	}
}
