// Command perfbench is the repository's benchmark of record. It runs one
// workload per process from a workload seed, checks every output it
// measures, and prints each metric by name with its unit. The last line
// of standard output is one JSON object: correct, attempted, failed and
// metrics (the end-to-end metrics, or with -trace 1 the per-layer ones).
//
// Usage (from the repository root; run.sh builds it and crcserve first):
//
//	bash perfbench/run.sh --workload table1|search|checksum|analysis \
//	     --seed N --seconds S --trace 0|1
//	bash perfbench/run.sh compare BASE_DIR NEW_DIR
//
// Every run writes its full result (host block, named figures, metrics)
// to <out>/results, and a traced run writes its span dump next to it.
// The compare mode reads two such directories.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
)

type workloadFunc func(ctx context.Context, env *env) (*outcome, error)

var workloads = map[string]workloadFunc{
	"table1":   runTable1,
	"search":   runSearch,
	"checksum": runChecksum,
	"analysis": runAnalysis,
}

// env is what a workload run receives: its seed and time budget, where
// to find crcserve and write files, the tracer (nil when untraced) and
// the failure tally.
type env struct {
	seed     int64
	seconds  int
	crcserve string
	out      string
	self     string // this executable, for set-up probes
	tracer   *Tracer
	tally    *Tally
}

// outcome is what one workload run measured.
type outcome struct {
	e2e    map[string]float64 // end-to-end metrics by contract name
	named  map[string]Metric  // the workload's figures under their own names
	layers map[string]float64 // per-layer metrics (traced runs)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "setup-probe" {
		if err := setupProbe(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench setup-probe:", err)
			os.Exit(1)
		}
		return
	}
	code, err := run(context.Background(), os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// run parses the command line and runs one workload or the compare mode.
// It returns 0 only when the run measured everything and every check
// passed.
func run(ctx context.Context, args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: table1, search, checksum or analysis")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 15, "how long the run measures")
	trace := fs.Int("trace", 0, "1 runs the workload untraced and then traced, and reports per-layer metrics")
	crcserve := fs.String("crcserve", "", "crcserve binary for the serving workloads")
	out := fs.String("out", ".bench_build/perfbench", "directory for results, span dumps, logs and corpora")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	bm, err := loadBenchmark("BENCHMARK.json")
	if err != nil {
		return 2, err
	}
	if fs.NArg() > 0 && fs.Arg(0) == "compare" {
		if fs.NArg() != 3 {
			return 2, errors.New("usage: perfbench compare BASE_DIR NEW_DIR")
		}
		return 0, compare(stdout, bm, fs.Arg(1), fs.Arg(2))
	}
	fn, ok := workloads[*workload]
	if !ok {
		return 2, fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return 2, errors.New("-seconds must be positive and -trace 0 or 1")
	}
	self, err := os.Executable()
	if err != nil {
		return 2, err
	}
	if err := os.MkdirAll(filepath.Join(*out, "results"), 0o755); err != nil {
		return 2, err
	}
	e := &env{seed: *seed, seconds: *seconds, crcserve: *crcserve, out: *out, self: self, tally: &Tally{}}

	res := &Result{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Host: hostInfo()}
	base, err := fn(ctx, e)
	if err != nil {
		return 1, err
	}
	res.Named = base.named
	specs, values := bm.EndToEnd, base.e2e
	if *trace == 1 {
		e.tracer = newTracer()
		traced, err := fn(ctx, e)
		if err != nil {
			return 1, err
		}
		values = traced.layers
		values["traced_run.overhead_pct"] = (base.e2e["ops_per_s"]/traced.e2e["ops_per_s"] - 1) * 100
		for _, s := range bm.PerLayer {
			if _, ok := values[s.Name]; !ok {
				values[s.Name] = 0 // the layer does no work on this workload
			}
		}
		dump := spanDumpPath(*out, *workload, *seed)
		if err := e.tracer.Dump(dump); err != nil {
			return 1, fmt.Errorf("span dump: %w", err)
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(e.tracer.Spans()), dump)
		specs = bm.PerLayer
	}
	res.Metrics, err = project(specs, values)
	if err != nil {
		return 1, err
	}
	res.Attempted, res.Failed = e.tally.counts()
	res.FailedFrac = e.tally.failedFrac()
	res.Correct = res.Failed == 0 && res.Attempted > 0
	res.Errors = e.tally.errors()
	printReport(stdout, res)
	path := filepath.Join(*out, "results", fmt.Sprintf("%s-s%d-t%d.json", *workload, *seed, *trace))
	if err := writeJSONFile(path, res); err != nil {
		return 1, err
	}
	line, err := json.Marshal(res.Line)
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1, fmt.Errorf("%d of %d operations failed or returned wrong answers", res.Failed, res.Attempted)
	}
	return 0, nil
}

// residentMiB is this process's resident set now.
func residentMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("/proc/self/statm: %q", b)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, fmt.Errorf("/proc/self/statm: %w", err)
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

// peakRSSSelfMiB is this process's peak resident set so far.
func peakRSSSelfMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
