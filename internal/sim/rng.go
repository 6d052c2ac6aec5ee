package sim

import "math"

// RNG is a small deterministic pseudo-random generator (xorshift64*) used
// by traffic generators and randomized tests. It is deliberately not
// math/rand so that simulator behaviour is pinned to this repository rather
// than to the standard library's generator choice. A probability is an
// integer threshold (Coin) on the top 53 bits of a draw: the decisions of
// comparing those bits as a float64 in [0, 1) against p, draw for draw.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed (0 is remapped so the
// generator never sticks at zero).
func NewRNG(seed int64) *RNG {
	s := uint64(seed)
	if s == 0 {
		s = 0x9E3779B97F4A7C15
	}
	return &RNG{state: s}
}

// xorshift advances a state by one draw; the draw is the new state times
// starMul.
func xorshift(x uint64) uint64 {
	x ^= x >> 12
	x ^= x << 25
	return x ^ x>>27
}

const starMul = 0x2545F4914F6CDD1D

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state = xorshift(r.state)
	return r.state * starMul
}

// Intn returns a pseudo-random int in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Coin is a probability as a threshold on the top 53 bits of a draw.
type Coin uint64

// NewCoin returns the coin that comes up heads with probability p:
// ceil(p * 2^53) clamped to [0, 2^53], and never heads for NaN. For k =
// Uint64()>>11, k < NewCoin(p) is exactly float64(k)/2^53 < p: k, k/2^53
// and p * 2^53 are exact in float64, and an integer is below y exactly
// when it is below ceil(y).
func NewCoin(p float64) Coin {
	if !(p > 0) {
		return 0
	}
	return Coin(math.Ceil(min(p, 1) * (1 << 53)))
}

// Heads reports whether the draw u brings the coin up heads.
func (c Coin) Heads(u uint64) bool { return u>>11 < uint64(c) }

// Flip draws one coin and reports whether it came up heads.
func (r *RNG) Flip(c Coin) bool { return c.Heads(r.Uint64()) }

// Tails flips c until it comes up heads or max coins are drawn, and
// returns how many it drew and whether the last came up heads: what a loop
// of Flip calls does, with the state in a register for the whole run.
func (r *RNG) Tails(c Coin, max int64) (n int64, heads bool) {
	x := r.state
	for n < max {
		x = xorshift(x)
		n++
		if c.Heads(x * starMul) {
			heads = true
			break
		}
	}
	r.state = x
	return n, heads
}
