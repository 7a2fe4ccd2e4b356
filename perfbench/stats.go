package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder is the set of percentiles a tail timing may be reported at,
// in per mille, highest first. The benchmark reports the highest one
// that has at least minBeyond samples above it, so a tail figure is
// never read off a handful of points.
var tailLadder = []int{990, 950, 900, 750, 500}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// Timing summarises one set of latency samples: the median, the highest
// supported tail percentile and the sample count.
type Timing struct {
	N      int     `json:"n"`
	P50    float64 `json:"p50"`
	Tail   float64 `json:"tail"`
	TailAt string  `json:"tail_at"` // "p99", "p95", ... or "max" when no percentile is supported
}

// tailPercentile returns the highest ladder percentile with at least
// minBeyond of n samples beyond it, and false when even the median has
// fewer (n < 20).
func tailPercentile(n int) (float64, bool) {
	for _, q := range tailLadder {
		if n*(1000-q) >= minBeyond*1000 {
			return float64(q) / 1000, true
		}
	}
	return 0, false
}

// quantile returns the q-quantile of sorted values by linear
// interpolation between closest ranks (the "inclusive" method of
// Python's statistics.quantiles and numpy's default).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo] + (sorted[hi]-sorted[lo])*frac
}

// summarize reduces samples (in any unit) to a Timing. With fewer than
// 20 samples no percentile has ten beyond it; the tail is then the
// maximum and is labelled so.
func summarize(samples []float64) Timing {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	t := Timing{N: len(s)}
	if len(s) == 0 {
		return t
	}
	t.P50 = quantile(s, 0.5)
	if q, ok := tailPercentile(len(s)); ok {
		t.Tail = quantile(s, q)
		t.TailAt = percentileName(q)
	} else {
		t.Tail = s[len(s)-1]
		t.TailAt = "max"
	}
	return t
}

func percentileName(q float64) string {
	switch q {
	case 0.99:
		return "p99"
	case 0.95:
		return "p95"
	case 0.90:
		return "p90"
	case 0.75:
		return "p75"
	}
	return "p50"
}

// Quartiles are the first quartile, median and third quartile of a set
// of run-level values, as Python's statistics.quantiles(values, n=4)
// computes them (its default "exclusive" method).
type Quartiles struct {
	Q1, Median, Q3 float64
}

// quartiles matches statistics.quantiles(values, n=4, method="exclusive")
// so that spreads printed here equal the ones the contract is checked
// with. It needs at least two values.
func quartiles(values []float64) Quartiles {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return Quartiles{math.NaN(), math.NaN(), math.NaN()}
	}
	if n == 1 {
		return Quartiles{s[0], s[0], s[0]}
	}
	cut := func(i int) float64 {
		// exclusive method: m = n+1; j = i*m//4; delta = i*m - j*4
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m-j*4) / 4
		return s[j-1]*(1-delta) + s[j]*delta
	}
	return Quartiles{cut(1), cut(2), cut(3)}
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise measure the contract bounds.
func (q Quartiles) spread() float64 {
	if q.Median == 0 {
		return math.Inf(1)
	}
	return math.Abs(q.Q3-q.Q1) / math.Abs(q.Median)
}

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
