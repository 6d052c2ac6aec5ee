package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatal("zero value should be 0")
	}
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("got %d, want 5", c.Value())
	}
}

func TestCounterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add(-1) should panic")
		}
	}()
	var c Counter
	c.Add(-1)
}

// Running is the float accumulator IntRunning replaced, kept as its
// reference: it accumulates a stream of observations and exposes count,
// sum, mean, min and max. The zero value is ready to use.
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

func TestRunning(t *testing.T) {
	var r Running
	if r.Mean() != 0 {
		t.Error("empty mean should be 0")
	}
	for _, v := range []float64{4, 2, 6} {
		r.Observe(v)
	}
	if r.Count() != 3 || r.Sum() != 12 || r.Mean() != 4 || r.Min() != 2 || r.Max() != 6 {
		t.Errorf("unexpected aggregates: %+v", r)
	}
}

// TestIntRunningEqualsRunning checks that the integer accumulator reports
// what Running reports for the same whole-number stream, bit for bit:
// NetStats' latency and hop means and the service board's latency
// components moved from one to the other, and every rendered figure that
// prints them must keep its bytes.
func TestIntRunningEqualsRunning(t *testing.T) {
	fn := func(vals []uint32) bool {
		var r Running
		var ir IntRunning
		for _, v := range vals {
			r.Observe(float64(v))
			ir.Observe(int64(v))
		}
		return ir.Count() == r.Count() && float64(ir.Sum()) == r.Sum() && ir.Mean() == r.Mean() &&
			float64(ir.Min()) == r.Min() && float64(ir.Max()) == r.Max()
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
	var ir IntRunning
	if ir.Mean() != 0 || ir.Min() != 0 || ir.Max() != 0 {
		t.Error("empty IntRunning should report zeros")
	}
}

// TestRunningQuick checks that Running matches a naive computation for
// random inputs.
func TestRunningQuick(t *testing.T) {
	fn := func(vals []float64) bool {
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				vals[i] = float64(i)
			}
		}
		var r Running
		min, max, sum := math.Inf(1), math.Inf(-1), 0.0
		for _, v := range vals {
			r.Observe(v)
			sum += v
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		if len(vals) == 0 {
			return r.Count() == 0
		}
		return r.Min() == min && r.Max() == max && r.Sum() == sum
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentile(t *testing.T) {
	s := []float64{5, 1, 3, 2, 4}
	if got := Percentile(s, 50); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := Percentile(s, 100); got != 5 {
		t.Errorf("p100 = %v, want 5", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
	// Input must not be modified.
	if s[0] != 5 {
		t.Error("Percentile modified its input")
	}
}
