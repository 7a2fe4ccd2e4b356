package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// Verdicts of the compare mode, after the choosing-metrics guide §6.5
// and §8.
const (
	verdictSame       = "same"       // within the bound, no resolved gain
	verdictBetter     = "better"     // a resolved gain
	verdictWorse      = "worse"      // worse by more than the bound
	verdictUnresolved = "unresolved" // the runs spread wider than the bound
)

// runSet is the values of one metric on one workload over a set of
// runs, keyed by seed so that runs pair up.
type runSet map[int64]float64

func (r runSet) values() []float64 {
	out := make([]float64, 0, len(r))
	for _, v := range r {
		out = append(out, v)
	}
	return out
}

// verdict compares a metric's base and new runs against its bound.
// When either side's quartile spread exceeds the bound the difference is
// unresolved, unless every new run beats (or loses to) every base run.
// Otherwise the new median is worse when it trails the base median by
// more than the bound, and better when it leads by more than the base's
// own spread while winning at least nine tenths of the seed-paired runs.
func verdict(spec MetricSpec, base, cur runSet) string {
	sign := 1.0 // positive deltas are worse
	if spec.Better == "higher" {
		sign = -1
	}
	bq, cq := quartiles(base.values()), quartiles(cur.values())
	if bq.spread() > spec.Bound || cq.spread() > spec.Bound {
		switch {
		case dominates(cur, base, sign):
			return verdictBetter
		case dominates(base, cur, sign):
			return verdictWorse
		}
		return verdictUnresolved
	}
	change := sign * (cq.Median - bq.Median) / math.Abs(bq.Median)
	if change > spec.Bound {
		return verdictWorse
	}
	if -change > bq.spread() && pairWinShare(base, cur, sign) >= 0.9 {
		return verdictBetter
	}
	return verdictSame
}

// dominates reports whether every run of a is better than every run of b.
func dominates(a, b runSet, sign float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, x := range a.values() {
		for _, y := range b.values() {
			if sign*(x-y) >= 0 {
				return false
			}
		}
	}
	return true
}

// pairWinShare is the share of seed-paired runs the new side wins; ties
// count for neither side but stay in the denominator.
func pairWinShare(base, cur runSet, sign float64) float64 {
	var pairs, wins int
	for seed, b := range base {
		c, ok := cur[seed]
		if !ok {
			continue
		}
		pairs++
		if sign*(c-b) < 0 {
			wins++
		}
	}
	if pairs == 0 {
		return 0
	}
	return float64(wins) / float64(pairs)
}

// loadResults reads every result file of a directory into
// workload -> metric -> seed -> value.
func loadResults(dir string) (map[string]map[string]runSet, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no results in %s", dir)
	}
	out := map[string]map[string]runSet{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r Result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string]runSet{}
		}
		for name, m := range r.Metrics {
			if out[r.Workload][name] == nil {
				out[r.Workload][name] = runSet{}
			}
			out[r.Workload][name][r.Seed] = m.Value
		}
	}
	return out, nil
}

// compare prints, per workload and metric, both sides' medians and
// quartiles, the change and the verdict against the metric's bound.
// Per-layer metrics have no bound and get no verdict.
func compare(w io.Writer, bm *Benchmark, baseDir, curDir string) error {
	base, err := loadResults(baseDir)
	if err != nil {
		return err
	}
	cur, err := loadResults(curDir)
	if err != nil {
		return err
	}
	specs := map[string]MetricSpec{}
	for _, s := range bm.EndToEnd {
		specs[s.Name] = s
	}
	var names []string
	for wl := range base {
		names = append(names, wl)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-9s %-34s %12s %25s %12s %25s %8s %6s %s\n",
		"workload", "metric", "base_med", "base_q1..q3", "new_med", "new_q1..q3", "change", "bound", "verdict")
	for _, wl := range names {
		var metrics []string
		for m := range base[wl] {
			if _, ok := cur[wl][m]; ok {
				metrics = append(metrics, m)
			}
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			b, c := base[wl][m], cur[wl][m]
			bq, cq := quartiles(b.values()), quartiles(c.values())
			change := (cq.Median - bq.Median) / math.Abs(bq.Median)
			v, bound := "-", "-"
			if s, ok := specs[m]; ok {
				v, bound = verdict(s, b, c), fmt.Sprintf("%.2f", s.Bound)
			}
			fmt.Fprintf(w, "%-9s %-34s %12.5g %12.5g..%-12.5g %12.5g %12.5g..%-12.5g %+7.1f%% %6s %s\n",
				wl, m, bq.Median, bq.Q1, bq.Q3, cq.Median, cq.Q1, cq.Q3, 100*change, bound, v)
		}
	}
	return nil
}
