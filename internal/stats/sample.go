package stats

import "sort"

// Sample collects raw observations for exact (nearest-rank) percentile
// computation, so its memory grows with the number of observations (for
// whole cycle counts CycleSample grows with the largest value instead).
// The zero value is ready to use. Use it for bounded measurement windows
// where the exact p99 matters more than constant memory.
type Sample struct {
	vals   []float64
	sorted bool
	sum    float64
}

// Observe adds one observation.
func (s *Sample) Observe(v float64) {
	s.vals = append(s.vals, v)
	s.sorted = false
	s.sum += v
}

// Count returns the number of observations.
func (s *Sample) Count() int { return len(s.vals) }

// Mean returns the arithmetic mean, or 0 with no observations.
func (s *Sample) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	return s.sum / float64(len(s.vals))
}

// Percentile returns the exact p-th percentile (0-100) by nearest rank,
// or 0 with no observations. The sample is sorted lazily on first use
// after new observations, so interleaving Observe and Percentile is
// correct but re-sorts.
func (s *Sample) Percentile(p float64) float64 {
	if p < 0 || p > 100 {
		panic("stats: percentile out of range")
	}
	if len(s.vals) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
	return s.vals[nearestRank(p, len(s.vals))-1]
}

// Max returns the largest observation, or 0 with no observations.
func (s *Sample) Max() float64 { return s.Percentile(100) }

// CycleSample is Sample for whole cycle counts: it keeps one counter per
// observed value instead of the observations, so a window that delivers
// millions of flits costs memory in its largest latency, not in its
// length, and a percentile is a walk over the counters, not a sort. It is
// exact — Mean and Percentile return what a Sample fed the same values
// would, bit for bit (integer sums below 2^53 are exact in a float64).
// The zero value is ready to use.
type CycleSample struct {
	counts []int64 // counts[v] observations of the value v
	n, sum int64
}

// Observe adds one observation. A negative one (a latency measured
// backwards) is a bug and panics on the index.
func (s *CycleSample) Observe(v int64) {
	if grow := int(v) + 1 - len(s.counts); grow > 0 {
		s.counts = append(s.counts, make([]int64, grow)...)
	}
	s.counts[v]++
	s.n++
	s.sum += v
}

// Count returns the number of observations.
func (s *CycleSample) Count() int64 { return s.n }

// Mean returns the arithmetic mean, or 0 with no observations.
func (s *CycleSample) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.sum) / float64(s.n)
}

// Percentile returns the exact p-th percentile (0-100) by nearest rank —
// the rank rule Sample and Percentile use — or 0 with no observations.
func (s *CycleSample) Percentile(p float64) float64 {
	if p < 0 || p > 100 {
		panic("stats: percentile out of range")
	}
	rank := int64(nearestRank(p, int(s.n)))
	var seen int64
	for v, c := range s.counts {
		if seen += c; seen >= rank {
			return float64(v)
		}
	}
	return 0
}
