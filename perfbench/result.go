package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
)

// Metric is one reported number with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Tally counts operations attempted and failed across a run. An
// operation fails when it errors or returns a wrong answer; both count
// in failed_frac. It is safe for concurrent use.
type Tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	firstErrs []string
}

// maxKeptErrors bounds the failure messages kept for the report.
const maxKeptErrors = 8

// Op records one attempted operation; a non-nil err marks it failed.
func (t *Tally) Op(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.firstErrs) < maxKeptErrors {
			t.firstErrs = append(t.firstErrs, err.Error())
		}
	}
}

// Check records a correctness check as one attempted operation.
func (t *Tally) Check(ok bool, format string, args ...any) {
	if ok {
		t.Op(nil)
		return
	}
	t.Op(fmt.Errorf(format, args...))
}

func (t *Tally) counts() (attempted, failed int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed
}

// failedFrac is failed ÷ attempted; a run that attempted nothing counts
// as wholly failed, so an empty run can never look healthy.
func (t *Tally) failedFrac() float64 {
	a, f := t.counts()
	if a == 0 {
		return 1
	}
	return float64(f) / float64(a)
}

func (t *Tally) errors() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.firstErrs...)
}

// Line is the last line the benchmark prints: exactly the keys the
// benchmark contract names.
type Line struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Result is the full record of one run, written next to the span dump
// and read back by the compare mode.
type Result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
	Host     Host   `json:"host"`
	Line
	FailedFrac float64 `json:"failed_frac"`
	// Named holds the workload's own end-to-end figures under the
	// names a reader of the paper would use (table1_s, stream_gbps...).
	Named  map[string]Metric `json:"named"`
	Errors []string          `json:"errors,omitempty"`
}

// Benchmark is the part of BENCHMARK.json the program reads: the
// metrics it must report, with their units and bounds.
type Benchmark struct {
	EndToEnd []MetricSpec `json:"end_to_end"`
	PerLayer []MetricSpec `json:"per_layer"`
}

// MetricSpec declares one metric of BENCHMARK.json.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmark(path string) (*Benchmark, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bm Benchmark
	if err := json.Unmarshal(b, &bm); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bm, nil
}

// project keeps exactly the declared metrics, failing when the run did
// not produce one of them or produced a value that is not a finite
// number, so a missing measurement can never be printed as a result.
func project(specs []MetricSpec, got map[string]float64) (map[string]Metric, error) {
	out := make(map[string]Metric, len(specs))
	for _, s := range specs {
		v, ok := got[s.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", s.Name, v)
		}
		out[s.Name] = Metric{Value: v, Unit: s.Unit}
	}
	return out, nil
}

// printReport writes the human-readable lines that precede the JSON
// line: the host block, the workload's named figures and the reported
// metrics, each with its unit.
func printReport(w io.Writer, r *Result) {
	fmt.Fprintf(w, "host: cpu=%q nproc=%d gomaxprocs=%d goamd64=%s go=%s pclmulqdq=%v avx512=%v\n",
		r.Host.CPU, r.Host.NProc, r.Host.GOMAXPROCS, r.Host.GOAMD64, r.Host.GoVersion, r.Host.PCLMULQDQ, r.Host.AVX512)
	fmt.Fprintf(w, "workload=%s seed=%d seconds=%d trace=%v attempted=%d failed=%d failed_frac=%g\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Attempted, r.Failed, r.FailedFrac)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "failure: %s\n", e)
	}
	printMetrics(w, "named", r.Named)
	printMetrics(w, "metric", r.Metrics)
}

func printMetrics(w io.Writer, label string, m map[string]Metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%s %s = %.6g %s\n", label, k, m[k].Value, m[k].Unit)
	}
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
