// Package stats provides small statistics helpers (counters, running
// aggregates, histograms, percentiles) used throughout the simulator to
// collect cycle-accurate measurements without perturbing behaviour.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
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

// Reset sets the counter back to zero.
func (c *Counter) Reset() { c.n = 0 }

// Running accumulates a stream of observations and exposes count, sum,
// mean, min and max. The zero value is ready to use.
type Running struct {
	count    int64
	sum      float64
	min, max float64
}

// Observe adds one observation.
func (r *Running) Observe(v float64) {
	if r.count == 0 {
		r.min, r.max = v, v
	} else {
		if v < r.min {
			r.min = v
		}
		if v > r.max {
			r.max = v
		}
	}
	r.count++
	r.sum += v
}

// Count returns the number of observations.
func (r *Running) Count() int64 { return r.count }

// Sum returns the sum of all observations.
func (r *Running) Sum() float64 { return r.sum }

// Mean returns the arithmetic mean, or 0 with no observations.
func (r *Running) Mean() float64 {
	if r.count == 0 {
		return 0
	}
	return r.sum / float64(r.count)
}

// Min returns the smallest observation, or 0 with no observations.
func (r *Running) Min() float64 { return r.min }

// Max returns the largest observation, or 0 with no observations.
func (r *Running) Max() float64 { return r.max }

// String renders a compact summary.
func (r *Running) String() string {
	return fmt.Sprintf("n=%d mean=%.2f min=%.0f max=%.0f", r.count, r.Mean(), r.min, r.max)
}

// Histogram is a fixed-bucket histogram over [0, BucketWidth*len(buckets)).
// Values beyond the last bucket land in the overflow bucket.
type Histogram struct {
	BucketWidth float64
	buckets     []int64
	overflow    int64
	all         Running
}

// NewHistogram creates a histogram with n buckets of the given width.
func NewHistogram(n int, width float64) *Histogram {
	if n <= 0 || width <= 0 {
		panic("stats: histogram needs positive bucket count and width")
	}
	return &Histogram{BucketWidth: width, buckets: make([]int64, n)}
}

// Observe adds one observation.
func (h *Histogram) Observe(v float64) {
	h.all.Observe(v)
	if v < 0 {
		v = 0
	}
	idx := int(v / h.BucketWidth)
	if idx >= len(h.buckets) {
		h.overflow++
		return
	}
	h.buckets[idx]++
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.all.Count() }

// Mean returns the mean of all observations.
func (h *Histogram) Mean() float64 { return h.all.Mean() }

// Max returns the largest observation.
func (h *Histogram) Max() float64 { return h.all.Max() }

// Bucket returns the count in bucket i.
func (h *Histogram) Bucket(i int) int64 { return h.buckets[i] }

// Overflow returns the count of observations beyond the last bucket.
func (h *Histogram) Overflow() int64 { return h.overflow }

// Quantile returns an approximate q-quantile (0 <= q <= 1) assuming values
// are uniformly distributed within a bucket.
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 || q > 1 {
		panic("stats: quantile out of range")
	}
	total := h.all.Count()
	if total == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(total)))
	if target <= 0 {
		target = 1
	}
	var cum int64
	for i, b := range h.buckets {
		cum += b
		if cum >= target {
			return (float64(i) + 0.5) * h.BucketWidth
		}
	}
	return h.all.Max()
}

// String renders a sparkline-ish summary of the histogram.
func (h *Histogram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "hist(n=%d mean=%.1f p50=%.1f p99=%.1f max=%.0f)",
		h.Count(), h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Max())
	return b.String()
}

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
