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

// flipLoop is what Tails must equal: Flip until heads or max coins.
func flipLoop(r *RNG, c Coin, max int64) (n int64, heads bool) {
	for n < max && !heads {
		n++
		heads = r.Flip(c)
	}
	return n, heads
}

// tailsVsFlipLoop runs Tails and a Flip loop from copies of r, reports any
// difference in n, heads or the final state, and returns the loop's n and
// heads.
func tailsVsFlipLoop(t *testing.T, r RNG, c Coin, max int64) (wantN int64, wantHeads bool) {
	t.Helper()
	loop := r
	wantN, wantHeads = flipLoop(&loop, c, max)
	if n, heads := r.Tails(c, max); n != wantN || heads != wantHeads || r != loop {
		t.Errorf("c=%d max=%d: Tails = (%d, %v) state %#x; Flip loop = (%d, %v) state %#x",
			c, max, n, heads, r.state, wantN, wantHeads, loop.state)
	}
	return wantN, wantHeads
}

// tailsHeadsAt checks Tails against a Flip loop on a generator whose
// first heads is coin pos, and that the run ends there or at max.
func tailsHeadsAt(t *testing.T, c Coin, max, pos int64) {
	t.Helper()
	n, heads := tailsVsFlipLoop(t, *headsAt(t, c, pos), c, max)
	if heads != (pos <= max) || n != min(pos, max) {
		t.Errorf("test set-up: heads at coin %d of max %d gave (%d, %v)", pos, max, n, heads)
	}
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
				tailsHeadsAt(t, c, max, pos)
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

// BenchmarkTails times one run of coins — until heads, or noc.ffwdHorizon's
// 16384 coins, the most injectGate asks for — drawn by Tails and by a loop
// of Flip calls, at mean gaps either side of chainGap. ns/coin is what a
// steady source pays for a cycle it sleeps through.
func BenchmarkTails(b *testing.B) {
	const max = 1 << 14
	for _, gap := range []int{16, 64, 256, 500, 1000, 10000} {
		c := NewCoin(1 / float64(gap))
		for _, loop := range []struct {
			name string
			run  func(*RNG) int64
		}{
			{"Tails", func(r *RNG) int64 { n, _ := r.Tails(c, max); return n }},
			{"Flip", func(r *RNG) int64 { n, _ := flipLoop(r, c, max); return n }},
		} {
			b.Run(fmt.Sprintf("gap=%d/%s", gap, loop.name), func(b *testing.B) {
				r := NewRNG(1)
				var coins int64
				for b.Loop() {
					coins += loop.run(r)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(coins), "ns/coin")
			})
		}
	}
}

func TestJumpEqualsSteps(t *testing.T) {
	steps := func(x uint64) uint64 {
		for range chainLen {
			x = xorshift(x)
		}
		return x
	}
	// The basis vectors are the table's columns; random states its sums.
	for b := range 64 {
		if x := uint64(1) << b; jump(x) != steps(x) {
			t.Errorf("jump(1<<%d) = %#x, %d steps = %#x", b, jump(x), chainLen, steps(x))
		}
	}
	r := NewRNG(5)
	for range 100_000 {
		if x := r.Uint64(); jump(x) != steps(x) {
			t.Fatalf("jump(%#x) = %#x, %d steps = %#x", x, jump(x), chainLen, steps(x))
		}
	}
}

// TestTailsChainBoundaries puts the first heads where the chained walk can
// get it wrong: on the edges of every chain and block, at the end of max,
// and behind a higher chain's heads on an earlier or the same step.
func TestTailsChainBoundaries(t *testing.T) {
	const m, block = chainLen, 4 * chainLen
	chained := Coin(1 << 53 / chainGap) // the shortest-gapped chained coin
	c := NewCoin(0.0001)
	if c > chained {
		t.Fatalf("coin %d does not take the chained path", c)
	}
	for b := range int64(2) {
		for j := range int64(4) {
			first := b*block + j*m + 1
			for _, pos := range []int64{first, first + m - 1} {
				tailsHeadsAt(t, c, 1<<14, pos)
			}
		}
	}
	for _, max := range []int64{block - 1, block, block + 1} {
		for pos := int64(block - 1); pos <= block+2; pos++ {
			tailsHeadsAt(t, c, max, pos)
		}
	}

	// Block 0 of some seed has its first heads on chain j at step s, and
	// another heads on a higher chain at a step before s, or at s itself.
	chain := func(k int64) int64 { return (k - 1) / m }
	step := func(k int64) int64 { return (k - 1) % m }
	for _, higher := range []struct {
		name string
		ok   func(stepDiff int64) bool
	}{
		{"an earlier step", func(d int64) bool { return d < 0 }},
		{"the same step", func(d int64) bool { return d == 0 }},
	} {
		seed := int64(1)
		for ; seed < 100_000; seed++ {
			r, first, found := NewRNG(seed), int64(0), false
			for k := int64(1); k <= block; k++ {
				switch {
				case !r.Flip(chained):
				case first == 0:
					first = k
				case chain(k) > chain(first) && higher.ok(step(k)-step(first)):
					found = true
				}
			}
			if found {
				if n, heads := tailsVsFlipLoop(t, *NewRNG(seed), chained, 1<<14); n != first || !heads {
					t.Errorf("test set-up: first heads at coin %d gave (%d, %v)", first, n, heads)
				}
				break
			}
		}
		if seed == 100_000 {
			t.Errorf("no seed below 100000 has a higher chain's heads on %s", higher.name)
		}
	}

	// Either side of the crossover, and random runs at gaps around it.
	for _, c := range []Coin{chained, chained + 1} {
		for seed := int64(1); seed <= 200; seed++ {
			tailsVsFlipLoop(t, *NewRNG(seed), c, 1<<14)
		}
	}
	r := NewRNG(9)
	for range 20_000 {
		gap := 16 + r.Intn(4*chainGap)
		tailsVsFlipLoop(t, *NewRNG(int64(r.Uint64())), NewCoin(1/float64(gap)), int64(r.Intn(3*block)))
	}

	// Never heads draws max coins; always heads draws one.
	for _, max := range []int64{block - 1, block, block + 1, 3*block + 5} {
		if n, h := tailsVsFlipLoop(t, *NewRNG(3), 0, max); n != max || h {
			t.Errorf("Tails(never, %d) = (%d, %v)", max, n, h)
		}
		if n, h := tailsVsFlipLoop(t, *NewRNG(3), 1<<53, max); n != 1 || !h {
			t.Errorf("Tails(always, %d) = (%d, %v)", max, n, h)
		}
	}
}

func FuzzTails(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, p float64, max int64) {
		tailsVsFlipLoop(t, *NewRNG(seed), NewCoin(p), max%(1<<15))
	})
}
