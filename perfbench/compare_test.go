package main

import "testing"

func seeds(vals ...float64) runSet {
	r := runSet{}
	for i, v := range vals {
		r[int64(i+1)] = v
	}
	return r
}

func TestVerdicts(t *testing.T) {
	lower := MetricSpec{Name: "p50_ms", Better: "lower", Bound: 0.1}
	higher := MetricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	steady := seeds(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	cases := []struct {
		name      string
		spec      MetricSpec
		base, cur runSet
		want      string
	}{
		{"unchanged", lower, steady, seeds(101, 100, 99, 102, 100, 98, 101, 100, 99, 100), verdictSame},
		{"slower beyond bound", lower, steady, seeds(120, 121, 119, 120, 122, 118, 120, 121, 119, 120), verdictWorse},
		{"slower within bound", lower, steady, seeds(105, 106, 104, 105, 107, 103, 105, 106, 104, 105), verdictSame},
		{"faster, every pair", lower, steady, seeds(90, 91, 89, 90, 92, 88, 90, 91, 89, 90), verdictBetter},
		{"higher is better", higher, steady, seeds(90, 91, 89, 90, 92, 88, 90, 91, 89, 90), verdictSame},
		{"throughput lost", higher, steady, seeds(80, 81, 79, 80, 82, 78, 80, 81, 79, 80), verdictWorse},
		{"noisy base", lower, seeds(60, 140, 80, 120, 100, 70, 130, 90, 110, 100), steady, verdictUnresolved},
		{"noisy but dominated", lower, seeds(200, 260, 210, 250, 230), seeds(100, 101, 99, 100, 102), verdictBetter},
		{"noisy and dominating", lower, seeds(100, 101, 99, 100, 102), seeds(200, 260, 210, 250, 230), verdictWorse},
		// Medians 10% apart, steady, but only 8 of 10 seed pairs won.
		{"gain without nine tenths of pairs", lower, steady, seeds(90, 90, 90, 90, 90, 90, 90, 90, 101, 102), verdictSame},
	}
	for _, c := range cases {
		if got := verdict(c.spec, c.base, c.cur); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
