package stats

import (
	"fmt"
	"testing"
)

func TestSample(t *testing.T) {
	var s Sample
	if s.Count() != 0 || s.Mean() != 0 || s.Percentile(99) != 0 {
		t.Error("zero-value Sample should report zeros")
	}
	for _, v := range []float64{5, 1, 3, 2, 4} {
		s.Observe(v)
	}
	if s.Count() != 5 {
		t.Errorf("count = %d, want 5", s.Count())
	}
	if s.Mean() != 3 {
		t.Errorf("mean = %v, want 3", s.Mean())
	}
	if got := s.Percentile(50); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := s.Percentile(100); got != 5 {
		t.Errorf("p100 = %v, want 5", got)
	}
	if got := s.Max(); got != 5 {
		t.Errorf("max = %v, want 5", got)
	}
	// Observing after a percentile query must re-sort.
	s.Observe(10)
	if got := s.Percentile(100); got != 10 {
		t.Errorf("p100 after new observation = %v, want 10", got)
	}
}

func TestSamplePercentileAgreesWithFreeFunction(t *testing.T) {
	var s Sample
	vals := []float64{9, 2, 7, 7, 1, 4, 8, 3}
	for _, v := range vals {
		s.Observe(v)
	}
	for _, p := range []float64{0, 10, 50, 90, 99, 100} {
		if got, want := s.Percentile(p), Percentile(vals, p); got != want {
			t.Errorf("p%.0f = %v, want %v", p, got, want)
		}
	}
}

// TestSampleEdgeCases pins the nearest-rank boundary behaviour: empty
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
			var s Sample
			for _, v := range tc.vals {
				s.Observe(v)
			}
			if got := s.Percentile(tc.p); got != tc.want {
				t.Errorf("Percentile(%v) over %v = %v, want %v", tc.p, tc.vals, got, tc.want)
			}
		})
	}
}

// TestSampleMeanEdgeCases covers the running-sum mean on the same corner
// inputs.
func TestSampleMeanEdgeCases(t *testing.T) {
	var empty Sample
	if got := empty.Mean(); got != 0 {
		t.Errorf("empty mean = %v", got)
	}
	var one Sample
	one.Observe(-3.5)
	if got := one.Mean(); got != -3.5 {
		t.Errorf("single-element mean = %v, want -3.5", got)
	}
	var eq Sample
	for i := 0; i < 5; i++ {
		eq.Observe(2.5)
	}
	if got := eq.Mean(); got != 2.5 {
		t.Errorf("all-equal mean = %v, want 2.5", got)
	}
	if got := eq.Max(); got != 2.5 {
		t.Errorf("all-equal max = %v, want 2.5", got)
	}
}

func TestSamplePercentileRangePanics(t *testing.T) {
	var s Sample
	defer func() {
		if recover() == nil {
			t.Error("Percentile(101) should panic")
		}
	}()
	s.Percentile(101)
}

// TestCycleSampleAgreesWithSample feeds seeded integer streams to a
// CycleSample and a Sample side by side: the counting form must return
// the same mean and the same percentiles, bit for bit, including on the
// empty and the single-value stream.
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
		var s Sample
		floats := make([]float64, len(vals))
		for i, v := range vals {
			c.Observe(v)
			s.Observe(float64(v))
			floats[i] = float64(v)
		}
		if c.Count() != int64(s.Count()) {
			t.Errorf("%s: count = %d, want %d", name, c.Count(), s.Count())
		}
		if got, want := c.Mean(), s.Mean(); got != want {
			t.Errorf("%s: mean = %v, want %v", name, got, want)
		}
		for _, p := range []float64{0, 50, 99, 100} {
			if got, want := c.Percentile(p), Percentile(floats, p); got != want {
				t.Errorf("%s: p%.0f = %v, want %v", name, p, got, want)
			}
			if got, want := c.Percentile(p), s.Percentile(p); got != want {
				t.Errorf("%s: p%.0f = %v, Sample says %v", name, p, got, want)
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
