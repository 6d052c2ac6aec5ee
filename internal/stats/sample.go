package stats

// CycleSample collects whole cycle counts for exact (nearest-rank)
// percentiles: it keeps one counter per observed value instead of the
// observations, so a window that delivers millions of flits costs memory
// in its largest latency, not in its length, and a percentile is a walk
// over the counters, not a sort. It is exact — Percentile returns what
// the package's Percentile returns on the same values, bit for bit, and
// Mean their float64 mean (integer sums below 2^53 are exact in a
// float64). The zero value is ready to use.
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
// the rank rule Percentile uses — or 0 with no observations.
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
