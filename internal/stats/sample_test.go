package stats

import (
	"fmt"
	"testing"
)

// TestSampleEdgeCases pins the nearest-rank boundary behaviour of both
// exact percentiles, Percentile over a slice and CycleSample: empty
// samples report zeros, a single element is every percentile, all-equal
// values are flat, and p0/p100 clamp to the extreme ranks (p0 rounds the
// rank up to 1, i.e. the minimum; p100 is the maximum).
func TestSampleEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		vals []float64
		p    float64
		want float64
	}{
		{"empty p0", nil, 0, 0},
		{"empty p50", nil, 50, 0},
		{"empty p100", nil, 100, 0},
		{"single p0", []float64{7}, 0, 7},
		{"single p50", []float64{7}, 50, 7},
		{"single p100", []float64{7}, 100, 7},
		{"all-equal p0", []float64{4, 4, 4, 4}, 0, 4},
		{"all-equal p99", []float64{4, 4, 4, 4}, 99, 4},
		{"p0 is the minimum", []float64{9, 2, 5}, 0, 2},
		{"p100 is the maximum", []float64{9, 2, 5}, 100, 9},
		// Nearest rank with n=4: rank = ceil(p/100*4), so p25 -> rank 1,
		// p25.01 -> rank 2, p75 -> rank 3, p75.01 -> rank 4.
		{"rank boundary p25", []float64{1, 2, 3, 4}, 25, 1},
		{"rank boundary p25+eps", []float64{1, 2, 3, 4}, 25.01, 2},
		{"rank boundary p75", []float64{1, 2, 3, 4}, 75, 3},
		{"rank boundary p75+eps", []float64{1, 2, 3, 4}, 75.01, 4},
		// Tiny p must still clamp the rank up to 1, not index vals[-1].
		{"tiny p clamps to rank 1", []float64{8, 6}, 0.0001, 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var s CycleSample
			for _, v := range tc.vals {
				s.Observe(int64(v))
			}
			if got := Percentile(tc.vals, tc.p); got != tc.want {
				t.Errorf("Percentile(%v, %v) = %v, want %v", tc.vals, tc.p, got, tc.want)
			}
			if got := s.Percentile(tc.p); got != tc.want {
				t.Errorf("CycleSample.Percentile(%v) over %v = %v, want %v", tc.p, tc.vals, got, tc.want)
			}
		})
	}
}

// TestCycleSampleAgreesWithSample feeds seeded integer streams to a
// CycleSample and keeps them as a float64 sample beside it: the counting
// form must return the sample's size, its float64 mean and Percentile's
// percentiles, bit for bit, including on the empty and the single-value
// stream.
func TestCycleSampleAgreesWithSample(t *testing.T) {
	streams := map[string][]int64{
		"empty":  nil,
		"single": {17},
		"zeros":  {0, 0, 0},
	}
	for seed, n := range map[uint64]int{1: 10, 2: 999, 3: 100000} {
		x := seed
		vals := make([]int64, n)
		for i := range vals {
			x = x*6364136223846793005 + 1442695040888963407 // a fixed LCG: the streams never change
			vals[i] = int64(x >> 33 % 5000)
			if x>>60 == 0 {
				vals[i] *= 40 // a long tail, as a saturated buffered router has
			}
		}
		streams[fmt.Sprintf("seed-%d", seed)] = vals
	}
	for name, vals := range streams {
		var c CycleSample
		floats := make([]float64, len(vals))
		var sum float64
		for i, v := range vals {
			c.Observe(v)
			floats[i] = float64(v)
			sum += floats[i]
		}
		if c.Count() != int64(len(vals)) {
			t.Errorf("%s: count = %d, want %d", name, c.Count(), len(vals))
		}
		mean := 0.0
		if len(vals) > 0 {
			mean = sum / float64(len(vals))
		}
		if got := c.Mean(); got != mean {
			t.Errorf("%s: mean = %v, want %v", name, got, mean)
		}
		for _, p := range []float64{0, 50, 99, 100} {
			if got, want := c.Percentile(p), Percentile(floats, p); got != want {
				t.Errorf("%s: p%.0f = %v, want %v", name, p, got, want)
			}
		}
	}
}

func TestCycleSampleRejectsBadInput(t *testing.T) {
	for name, f := range map[string]func(){
		"negative observation": func() { new(CycleSample).Observe(-1) },
		"percentile above 100": func() { new(CycleSample).Percentile(101) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}
