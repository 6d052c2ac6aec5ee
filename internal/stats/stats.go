// Package stats provides small statistics helpers (counters, running
// aggregates, exact percentile samples) used throughout the simulator to
// collect cycle-accurate measurements without perturbing behaviour.
package stats

import (
	"math"
	"sort"
)

// Counter is a monotonically increasing event counter.
type Counter struct {
	n int64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.n++ }

// Add adds delta (which must be non-negative) to the counter.
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		panic("stats: negative delta on Counter")
	}
	c.n += delta
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n }

// IntRunning accumulates a stream of whole-number observations (cycle
// and hop counts) and exposes count, sum, mean, min and max: an
// observation is an add and two compares, with no conversion. Mean is the
// float64 quotient of the integer sum and count, which equals a float
// accumulator's for the same stream while the sum stays below 2^53 (every
// integer up to there is exact in a float64; TestIntRunningEqualsRunning
// holds it to one). The zero value is ready to use.
type IntRunning struct {
	count, sum int64
	min, max   int64
}

// Observe adds one observation.
func (r *IntRunning) Observe(v int64) {
	if r.count == 0 || v < r.min {
		r.min = v
	}
	if r.count == 0 || v > r.max {
		r.max = v
	}
	r.count++
	r.sum += v
}

// Count returns the number of observations.
func (r *IntRunning) Count() int64 { return r.count }

// Sum returns the sum of all observations.
func (r *IntRunning) Sum() int64 { return r.sum }

// Mean returns the arithmetic mean, or 0 with no observations.
func (r *IntRunning) Mean() float64 {
	if r.count == 0 {
		return 0
	}
	return float64(r.sum) / float64(r.count)
}

// Min returns the smallest observation, or 0 with no observations.
func (r *IntRunning) Min() int64 { return r.min }

// Max returns the largest observation, or 0 with no observations.
func (r *IntRunning) Max() int64 { return r.max }

// Percentile computes the p-th percentile (0-100) of a sample slice using
// nearest-rank. It does not modify the input.
func Percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	if p < 0 || p > 100 {
		panic("stats: percentile out of range")
	}
	cp := make([]float64, len(samples))
	copy(cp, samples)
	sort.Float64s(cp)
	return cp[nearestRank(p, len(cp))-1]
}

// nearestRank is the 1-based rank of the p-th percentile among n sorted
// observations: ceil(p/100 * n), at least 1. Every exact percentile in
// this package uses it, so they agree on every boundary.
func nearestRank(p float64, n int) int {
	return max(int(math.Ceil(p/100*float64(n))), 1)
}
