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
// of Flip calls does, with the state in a register for the whole run and
// stored once. A coin whose mean gap is at least chainGap walks its draws
// in blocks of 4·chainLen, as four chains of chainLen draws each stepped in
// lockstep (DESIGN.md, "Idle sources"); what is left of max after the last
// whole block, and every shorter-gapped coin, is drawn one after another.
func (r *RNG) Tails(c Coin, max int64) (n int64, heads bool) {
	x := r.state
	if uint64(c) <= 1<<53/chainGap {
		t := uint64(c) << 11 // Heads(u) is u < t; no overflow, c < 2^53
		for max-n >= 4*chainLen {
			y0 := x
			y1 := jump(y0)
			y2 := jump(y1)
			y3 := jump(y2)
			for i := int64(1); i <= chainLen; i++ {
				y0, y1, y2, y3 = xorshift(y0), xorshift(y1), xorshift(y2), xorshift(y3)
				if min(y0*starMul, y1*starMul, y2*starMul, y3*starMul) < t {
					k, y := c.firstHeads([4]uint64{y0, y1, y2, y3}, i)
					r.state = y
					return n + k, true
				}
			}
			x = y3 // chain 3 ends on the block's last draw
			n += 4 * chainLen
		}
	}
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

// firstHeads finds the earliest heads of a block, given its four chains'
// states at step i, the first step on which some chain came up heads. Each
// chain in turn runs on from i to the end of its run, so a lower chain's
// heads wins over a higher chain's earlier one; if chains 0-2 have none,
// chain 3 came up heads at i. It returns the heads' draw number within the
// block (1-based) and the state that drew it.
func (c Coin) firstHeads(ys [4]uint64, i int64) (k int64, state uint64) {
	for j, y := range ys[:3] {
		for s := i; ; s++ {
			if c.Heads(y * starMul) {
				return int64(j)*chainLen + s, y
			}
			if s == chainLen {
				break
			}
			y = xorshift(y)
		}
	}
	return 3*chainLen + i, ys[3]
}

// chainLen is the length m of each of Tails' four chains; chain j of a
// block starts from A^(j·m)·x, where A is xorshift as a 64×64 matrix over
// GF(2), reached by jump.
const chainLen = 32

// chainGap is the mean gap 1/p, in coins, from which Tails walks chains:
// below it a run too often ends early in its first block, whose jumps, and
// lockstep draws past the heads, are thrown away. BenchmarkTails, ns a coin
// at mean gap 16 / 64 / 256 / 500 / 1000 / 10 000: Tails 2.9 / 2.1 / 1.3 /
// 1.27 / 1.08 / 1.03 (16 drawn serially), a loop of Flip calls 3.1 / 2.5 /
// 2.4 / 2.3 / 2.3 / 2.3. Chained at every gap, Tails costs 4.9 at gap 16,
// 3.1 at 32 and 2.4 at 48, where drawing serially costs 2.7, 2.5 and 2.4.
const chainGap = 64

// jumpTable holds A^chainLen byte-sliced: jumpTable[k][v] is the image of
// byte value v in byte k of a state, so a jump is eight lookups XORed.
// Built from xorshift itself: bit b's column is xorshift applied chainLen
// times to 1<<b, and the XOR of columns is the image of the sum.
var jumpTable = func() (t [8][256]uint64) {
	for k := range t {
		for v := 1; v < 256; v++ {
			if low := v & -v; low != v {
				t[k][v] = t[k][low] ^ t[k][v^low]
				continue
			}
			x := uint64(v) << (8 * k)
			for range chainLen {
				x = xorshift(x)
			}
			t[k][v] = x
		}
	}
	return t
}()

// jump returns the state chainLen draws after x: A^chainLen·x.
func jump(x uint64) uint64 {
	t := &jumpTable
	return t[0][uint8(x)] ^ t[1][uint8(x>>8)] ^ t[2][uint8(x>>16)] ^ t[3][uint8(x>>24)] ^
		t[4][uint8(x>>32)] ^ t[5][uint8(x>>40)] ^ t[6][uint8(x>>48)] ^ t[7][x>>56]
}
