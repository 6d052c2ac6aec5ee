package main

import (
	"sort"
	"time"
)

// summary is how every timing is reported: the median of its samples,
// their quartiles and how many there were.
type summary struct {
	Value float64 `json:"value"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// quartiles returns the three cut points of v by the exclusive method,
// the one Python's statistics.quantiles(v, n=4) uses, so that a spread
// computed here equals the one the acceptance driver computes. One sample
// is its own quartiles; none gives zeros.
func quartiles(v []float64) (q1, q2, q3 float64) {
	n := len(v)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func summarize(v []float64) summary {
	q1, q2, q3 := quartiles(v)
	return summary{Value: q2, Q1: q1, Q3: q3, N: len(v)}
}

// one is the summary of a single observation (counts, ratios).
func one(v float64) summary { return summary{Value: v, Q1: v, Q3: v, N: 1} }

func median(v []float64) float64 {
	_, q2, _ := quartiles(v)
	return q2
}

// iqrShare is the distance between the quartiles as a share of the median.
func (s summary) iqrShare() float64 {
	if s.Value == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Value
}

// perOp times n back-to-back calls of fn and returns the mean cost of one
// in nanoseconds.
func perOp(n int, fn func()) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// repeat calls fn k times and summarises what it returned; probes use it
// so that one scheduler hiccup does not become the reported number.
func repeat(k int, fn func() float64) summary {
	v := make([]float64, k)
	for i := range v {
		v[i] = fn()
	}
	return summarize(v)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
