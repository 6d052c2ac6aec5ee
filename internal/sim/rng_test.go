package sim

import (
	"fmt"
	"math"
	"testing"
)

// floatHeads is the formula Coin replaced, kept as the reference: the top
// 53 bits of the draw as a float64 in [0, 1), compared against p.
func floatHeads(u uint64, p float64) bool {
	return float64(u>>11)/(1<<53) < p
}

// coinProbabilities covers both ends of the clamp, the values nothing
// compares with (NaN) or below (-0), the smallest p that can come up heads,
// both neighbours of the 2^-53 grid's ends, and the rates the examples use.
var coinProbabilities = []float64{
	math.NaN(), -1, math.Copysign(0, -1), 0, 5e-324, 0x1p-53, 0.001, 0.002,
	1.0 / 3, 0.4, 1 - 0x1p-53, 1, 1.5, math.Inf(1),
}

func TestCoinEqualsFloatCompare(t *testing.T) {
	for _, tc := range []struct {
		p    float64
		want Coin
	}{
		{math.NaN(), 0}, {math.Inf(-1), 0}, {-1, 0}, {math.Copysign(0, -1), 0}, {0, 0},
		{5e-324, 1}, {0x1p-53, 1}, {0x1p-53 + 0x1p-105, 2}, {0.5, 1 << 52},
		{1 - 0x1p-53, 1<<53 - 1}, {1, 1 << 53}, {1.5, 1 << 53}, {math.Inf(1), 1 << 53},
	} {
		if got := NewCoin(tc.p); got != tc.want {
			t.Errorf("NewCoin(%g) = %d, want %d", tc.p, got, tc.want)
		}
	}
	for _, p := range coinProbabilities {
		c := NewCoin(p)
		if c > 1<<53 {
			t.Fatalf("NewCoin(%g) = %d, above 2^53", p, c)
		}
		// Either side of the threshold, with the 11 discarded bits clear
		// and set.
		for _, k := range []uint64{uint64(c) - 1, uint64(c), uint64(c) + 1} {
			if k >= 1<<53 { // c-1 below zero, or no such draw
				continue
			}
			for _, u := range []uint64{k << 11, k<<11 | 0x7FF} {
				if got, want := c.Heads(u), floatHeads(u, p); got != want {
					t.Errorf("p=%g k=%d: Heads=%v, float compare=%v", p, k, got, want)
				}
			}
		}
		flip, ref := NewRNG(7), NewRNG(7)
		for i := 0; i < 1_000_000; i++ {
			u := ref.Uint64()
			if f := float64(u>>11) / (1 << 53); f < 0 || f >= 1 {
				t.Fatalf("draw %d: %v outside [0, 1)", i, f)
			}
			if got, want := flip.Flip(c), floatHeads(u, p); got != want {
				t.Fatalf("p=%g draw %d: Flip=%v, float compare=%v", p, i, got, want)
			}
		}
		if *flip != *ref {
			t.Errorf("p=%g: Flip left state %#x, one draw a coin leaves %#x", p, flip.state, ref.state)
		}
	}
}

// headsAt returns a generator whose pos-th Flip of c from here (1-based)
// is the first to come up heads.
func headsAt(t *testing.T, c Coin, pos int64) *RNG {
	t.Helper()
	for seed := int64(1); seed < 1000; seed++ {
		first := int64(1)
		for r := NewRNG(seed); !r.Flip(c); first++ {
		}
		if first < pos {
			continue
		}
		r := NewRNG(seed)
		for ; first > pos; first-- {
			r.Uint64()
		}
		return r
	}
	t.Fatalf("no seed below 1000 has its first heads at coin %d or later", pos)
	return nil
}

func TestTailsEqualsFlipLoop(t *testing.T) {
	c := NewCoin(0.0001)
	for _, max := range []int64{0, 1, 7, 16384} {
		// Heads on the first coin, a middle one, the last one, and on the
		// coin after the last (which Tails must neither see nor draw).
		for _, pos := range []int64{1, (max + 1) / 2, max, max + 1} {
			if pos < 1 {
				continue
			}
			t.Run(fmt.Sprintf("max=%d/heads@%d", max, pos), func(t *testing.T) {
				run := headsAt(t, c, pos)
				loop := *run
				var wantN int64
				wantHeads := false
				for wantN < max && !wantHeads {
					wantN++
					wantHeads = loop.Flip(c)
				}
				if wantHeads != (pos <= max) || wantN != min(pos, max) {
					t.Fatalf("test set-up: Flip loop gave n=%d heads=%v", wantN, wantHeads)
				}
				n, heads := run.Tails(c, max)
				if n != wantN || heads != wantHeads || *run != loop {
					t.Errorf("Tails = (%d, %v) state %#x; Flip loop = (%d, %v) state %#x",
						n, heads, run.state, wantN, wantHeads, loop.state)
				}
			})
		}
	}
	// A coin that never comes up heads draws all max coins.
	run, loop := NewRNG(3), NewRNG(3)
	for i := 0; i < 16384; i++ {
		loop.Uint64()
	}
	if n, heads := run.Tails(NewCoin(0), 16384); n != 16384 || heads || *run != *loop {
		t.Errorf("Tails(never, 16384) = (%d, %v) state %#x, want (16384, false) state %#x",
			n, heads, run.state, loop.state)
	}
}

func FuzzCoin(f *testing.F) {
	for _, p := range coinProbabilities {
		f.Add(p, uint64(NewCoin(p))<<11)
	}
	f.Fuzz(func(t *testing.T, p float64, u uint64) {
		c := NewCoin(p)
		if c > 1<<53 {
			t.Fatalf("NewCoin(%g) = %d, above 2^53", p, c)
		}
		if got, want := c.Heads(u), floatHeads(u, p); got != want {
			t.Fatalf("p=%g (%#x) u=%#x: Heads=%v, float compare=%v", p, math.Float64bits(p), u, got, want)
		}
	})
}
