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
	c.Reset()
	if c.Value() != 0 {
		t.Error("reset failed")
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

func TestRunning(t *testing.T) {
	var r Running
	if r.Mean() != 0 {
		t.Error("empty mean should be 0")
	}
	for _, v := range []float64{4, 2, 6} {
		r.Observe(v)
	}
	if r.Count() != 3 || r.Sum() != 12 || r.Mean() != 4 || r.Min() != 2 || r.Max() != 6 {
		t.Errorf("unexpected aggregates: %v", r.String())
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
