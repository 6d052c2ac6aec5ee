package noc

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/sim"
)

// AllPatterns returns every defined traffic pattern in declaration order.
func AllPatterns() []Pattern { return patterns.All() }

// PatternNames returns the canonical names of every pattern, for flag
// documentation and error messages.
func PatternNames() []string { return patterns.Names() }

// ParsePattern resolves a pattern from its canonical name (as printed by
// Pattern.String) or its numeric value, by the rules of enum.Table.Parse:
// "bit_complement" and "Bit-Complement" both work.
func ParsePattern(s string) (Pattern, error) { return patterns.Parse(s) }

// ValidatePattern reports whether pattern p can run on topology t. The
// patterns address the endpoint grid, so the constraints are per-topology:
// the bit-permutation patterns are only defined for power-of-two endpoint
// counts, and transpose only permutes square endpoint grids (on the torus
// and mesh the endpoint grid is the switch grid; the cmesh's is 2x denser
// in each dimension than its switch grid).
func ValidatePattern(p Pattern, t Topology) error {
	if !patterns.Valid(p) {
		return fmt.Errorf("noc: unknown pattern %d", int(p))
	}
	ew, eh := t.EndpointDims()
	switch p {
	case BitReversal, Shuffle:
		if n := t.NumEndpoints(); n&(n-1) != 0 {
			return fmt.Errorf("noc: %v requires a power-of-two endpoint count; %dx%d %v = %d is not",
				p, ew, eh, t.Kind(), n)
		}
	case Transpose:
		if ew != eh {
			return fmt.Errorf("noc: %v is only a permutation on square endpoint grids, got %dx%d %v",
				p, ew, eh, t.Kind())
		}
	}
	return nil
}

// PermutationDest returns the destination endpoint of the
// permutation-style pattern p for source endpoint src on topology t. It
// panics if p is not a permutation pattern; callers should have run
// ValidatePattern first for the bit patterns.
func PermutationDest(p Pattern, t Topology, src int) int {
	ew, eh := t.EndpointDims()
	switch p {
	case Transpose:
		x, y := t.EndpointCoord(src)
		return t.EndpointID(y%ew, x%eh)
	case BitComplement:
		x, y := t.EndpointCoord(src)
		return t.EndpointID(ew-1-x, eh-1-y)
	case BitReversal:
		b := bits.Len(uint(t.NumEndpoints())) - 1
		return int(bits.Reverse(uint(src)) >> (bits.UintSize - b))
	case Shuffle:
		n := t.NumEndpoints()
		b := bits.Len(uint(n)) - 1
		return ((src << 1) | (src >> (b - 1))) & (n - 1)
	case Tornado:
		x, y := t.EndpointCoord(src)
		return t.EndpointID(x+(ew+1)/2-1, y+(eh+1)/2-1)
	}
	panic(fmt.Sprintf("noc: %v is not a permutation pattern", p))
}

// IsPermutation reports whether p maps each source to one fixed
// destination (a function of the topology only, no randomness).
func (p Pattern) IsPermutation() bool {
	switch p {
	case Transpose, BitComplement, BitReversal, Shuffle, Tornado:
		return true
	}
	return false
}

// BurstConfig parameterizes a two-state (on/off) Markov traffic modulator:
// geometrically distributed bursts of mean length MeanOn cycles separated
// by idle gaps of mean length MeanOff cycles. The long-run fraction of
// cycles spent injecting is Duty(). The json tags are a scenario file's
// "burst" object; the key tags are result-cache field names.
type BurstConfig struct {
	// MeanOn is the mean burst length in cycles (>= 1).
	MeanOn float64 `json:"mean_on" key:"burst_mean_on"`
	// MeanOff is the mean idle-gap length in cycles (>= 1).
	MeanOff float64 `json:"mean_off" key:"burst_mean_off"`
}

// Validate checks the configuration (positively: NaN is >= nothing).
func (c BurstConfig) Validate() error {
	if !(c.MeanOn >= 1 && c.MeanOff >= 1) || math.IsInf(c.MeanOn+c.MeanOff, 1) {
		return fmt.Errorf("noc: burst mean durations must be >= 1 cycle and finite, got on=%g off=%g",
			c.MeanOn, c.MeanOff)
	}
	return nil
}

// Duty returns the configured long-run on fraction MeanOn/(MeanOn+MeanOff).
func (c BurstConfig) Duty() float64 { return c.MeanOn / (c.MeanOn + c.MeanOff) }

// BurstModulator is the running state of a BurstConfig: call Step once per
// cycle; it reports whether the source is in its on (bursting) state.
type BurstModulator struct {
	// On at the start; a burst ends (1/MeanOn); a gap ends (1/MeanOff).
	duty, leaveOn, leaveOff sim.Coin

	rng     *sim.RNG
	on      bool
	started bool

	onCycles, cycles int64
}

// NewBurstModulator creates a modulator. The initial state is drawn from
// the stationary distribution (on with probability Duty) so short
// measurement windows are unbiased.
func NewBurstModulator(cfg BurstConfig, seed int64) *BurstModulator {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &BurstModulator{
		duty:    sim.NewCoin(cfg.Duty()),
		leaveOn: sim.NewCoin(1 / cfg.MeanOn), leaveOff: sim.NewCoin(1 / cfg.MeanOff),
		rng: sim.NewRNG(seed),
	}
}

// Step advances one cycle and reports whether this cycle is on.
func (b *BurstModulator) Step() bool {
	if !b.started {
		b.started = true
		b.on = b.rng.Flip(b.duty)
	} else if b.on {
		b.on = !b.rng.Flip(b.leaveOn)
	} else {
		b.on = b.rng.Flip(b.leaveOff)
	}
	b.cycles++
	if b.on {
		b.onCycles++
	}
	return b.on
}

// snapshot returns a restorable value copy of the modulator (its RNG
// dereferenced), for TrafficNode's checkpoint support.
func (b *BurstModulator) snapshot() BurstModulator {
	s := *b
	rng := *b.rng
	s.rng = &rng
	return s
}

// restore reinstates a snapshot taken from this modulator.
func (b *BurstModulator) restore(s BurstModulator) {
	rng := *s.rng
	*b = s
	b.rng = &rng
}

// MeasuredDuty returns the observed on fraction so far, or 0 before any
// Step.
func (b *BurstModulator) MeasuredDuty() float64 {
	if b.cycles == 0 {
		return 0
	}
	return float64(b.onCycles) / float64(b.cycles)
}
