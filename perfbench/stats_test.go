package main

import (
	"math"
	"testing"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want string
	}{
		{5, "max"}, {19, "max"}, {20, "p50"}, {39, "p50"}, {40, "p75"},
		{100, "p90"}, {199, "p90"}, {200, "p95"}, {999, "p95"}, {1000, "p99"}, {100000, "p99"},
	}
	for _, c := range cases {
		s := make([]float64, c.n)
		for i := range s {
			s[i] = float64(i)
		}
		tm := summarize(s)
		if tm.TailAt != c.want || tm.N != c.n {
			t.Errorf("n=%d: tail at %s (n=%d), want %s", c.n, tm.TailAt, tm.N, c.want)
		}
		beyond := 0
		for _, v := range s {
			if v > tm.Tail {
				beyond++
			}
		}
		if tm.TailAt != "max" && beyond < minBeyond {
			t.Errorf("n=%d: %s has %d samples beyond it, want at least %d", c.n, c.want, beyond, minBeyond)
		}
	}
}

func TestSummarizeValues(t *testing.T) {
	// 1..1000 shuffled order must not matter.
	s := make([]float64, 1000)
	for i := range s {
		s[(i*7919)%1000] = float64(i + 1)
	}
	tm := summarize(s)
	if tm.P50 != 500.5 {
		t.Errorf("p50 = %v, want 500.5", tm.P50)
	}
	if math.Abs(tm.Tail-990.01) > 1e-9 || tm.TailAt != "p99" {
		t.Errorf("tail = %v at %s, want 990.01 at p99", tm.Tail, tm.TailAt)
	}
	short := summarize([]float64{3, 1, 2})
	if short.Tail != 3 || short.TailAt != "max" || short.P50 != 2 {
		t.Errorf("three samples: %+v", short)
	}
}

// The quartiles must equal Python's statistics.quantiles(values, n=4),
// which the benchmark contract uses to judge steadiness.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	cases := []struct {
		in         []float64
		q1, md, q3 float64
	}{
		// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
		{[]float64{16, 1, 8, 2, 4}, 1.5, 4, 12},
		// statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]: the
		// exclusive method extrapolates past the data.
		{[]float64{5, 3}, 2.5, 4, 5.5},
	}
	for _, c := range cases {
		q := quartiles(c.in)
		if q.Q1 != c.q1 || q.Median != c.md || q.Q3 != c.q3 {
			t.Errorf("quartiles(%v) = %+v, want %v %v %v", c.in, q, c.q1, c.md, c.q3)
		}
	}
	if got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}).spread(); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}
