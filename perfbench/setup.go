package main

import (
	"context"
	"errors"
	"fmt"
	"os/exec"
	"strconv"
	"time"

	"koopmancrc"
)

// setupReps is how many times a run sets up, reporting the median, so a
// single slow start does not move setup_s.
const (
	setupReps = 5
	probeReps = 5
)

// warmup is how long a run works untimed before measuring, so that the
// heap has grown to its working size and the CPUs are busy: users of a
// long-lived process do not pay that ramp on every call.
const warmup = 2 * time.Second

// probeSetup measures an in-process workload's set-up: a fresh process
// of this benchmark that starts, builds the workload's inputs, makes the
// workload's first timed call cold — the first column's Evaluate for
// table1, a Search job for search — and exits. The search probes take
// the seed's first probeReps jobs, one each, so that the median does
// not rest on the cost of one slice.
// That is a caller's cost from start to its first answer.
func probeSetup(e *env, workload string) (float64, error) {
	var times []float64
	for i := 0; i < probeReps; i++ {
		cmd := exec.Command(e.self, "setup-probe", workload, strconv.FormatInt(e.seed, 10), strconv.Itoa(i))
		t0 := time.Now()
		if out, err := cmd.CombinedOutput(); err != nil {
			return 0, fmt.Errorf("setup probe: %v: %s", err, out)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), nil
}

// setupProbe is the body of the probe process. Its answers are checked
// as the timed run's are.
func setupProbe(args []string) error {
	if len(args) != 3 {
		return errors.New("usage: setup-probe WORKLOAD SEED REP")
	}
	seed, err := strconv.ParseInt(args[1], 10, 64)
	if err != nil {
		return err
	}
	rep, err := strconv.Atoi(args[2])
	if err != nil {
		return err
	}
	ctx := context.Background()
	tally := &Tally{}
	switch args[0] {
	case "table1":
		j := table1Jobs(seed)[0]
		rep, err := koopmancrc.NewAnalyzer(j.p, koopmancrc.WithMaxHD(j.maxHD)).Evaluate(ctx, j.length)
		if err != nil {
			return err
		}
		tally.Op(checkProfile(j, rep))
	case "search":
		jobs := newSearchJobs(seed)
		for i := 0; i < rep; i++ {
			jobs.next()
		}
		c := jobs.next()
		res, err := koopmancrc.Search(ctx, c)
		if err != nil {
			return err
		}
		want := canonicalCount(searchWidth, c.StartIdx, c.EndIdx)
		tally.Check(res.Candidates == want, "search [%d,%d): %d candidates, slice has %d canonical", c.StartIdx, c.EndIdx, res.Candidates, want)
	default:
		return fmt.Errorf("no in-process set-up for %q", args[0])
	}
	if _, failed := tally.counts(); failed > 0 {
		return fmt.Errorf("first operation failed: %v", tally.errors())
	}
	return nil
}
