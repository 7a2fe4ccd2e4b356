package main

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"time"

	"koopmancrc"
	"koopmancrc/internal/core"
)

// The search workload runs the paper's §4.2 design-space search over a
// seeded slice of the 32-bit space: many short-lived evaluators making
// early-exit existence queries in parallel, the opposite engine use to
// table1.
const (
	searchWidth = 32
	searchHD    = 6
	// searchJob canonical candidates make one Search call, the unit a
	// caller (a CI polynomial check, a dist job) waits for. Each job
	// starts at a seeded random place in the space, so a run samples
	// many regions of it rather than one.
	searchJob = 8
	// searchWorkers is the Search parallelism: the host's two CPUs.
	searchWorkers = 2
)

// searchLengths is the increasing-length HD filter. It stops at 1024
// bits: past that, HD-6 candidates reach the 512 MiB meet-in-the-middle
// bitmap per evaluator, which makes a slice's cost depend on whether it
// happens to hold one (seed-to-seed throughput varied 6–22 polys/s to
// 8192 bits, with 2.8 GiB peak memory).
var searchLengths = []int{64, 128, 256, 512, 1024}

// searchJobs yields the seeded sequence of job slices.
type searchJobs struct{ r *rand.Rand }

func newSearchJobs(seed int64) searchJobs { return searchJobs{rand.New(rand.NewSource(seed))} }

// next returns a slice starting at a random raw index and extended
// until it holds searchJob canonical candidates (the space's density of
// canonical members varies from region to region).
func (j searchJobs) next() koopmancrc.SearchConfig {
	total := uint64(1) << (searchWidth - 1)
	start := uint64(j.r.Int63n(int64(total / 2)))
	end := start
	for n := uint64(0); n < searchJob; end++ {
		n += canonicalCount(searchWidth, end, end+1)
	}
	return koopmancrc.SearchConfig{
		Width: searchWidth, MinHD: searchHD, Lengths: searchLengths,
		StartIdx: start, EndIdx: end, Parallelism: searchWorkers,
	}
}

// canonicalCount counts the canonical candidates of raw indices
// [lo, hi) independently of internal/core: index i is the Koopman value
// 2^(w-1)+i, and it is canonical when it is not larger than its
// reciprocal's Koopman value.
func canonicalCount(width int, lo, hi uint64) uint64 {
	var n uint64
	for i := lo; i < hi; i++ {
		k := uint64(1)<<(width-1) + i
		full := k<<1 | 1 // x^w + ... + 1
		rev := bits.Reverse64(full) >> (64 - (width + 1))
		if k <= rev>>1 {
			n++
		}
	}
	return n
}

func runSearch(ctx context.Context, e *env) (*outcome, error) {
	setup, err := probeSetup(e, "search")
	if err != nil {
		return nil, err
	}
	// Warm up untimed on jobs of their own, so the heap has grown and
	// the CPUs are busy before the clock starts.
	warm := newSearchJobs(^e.seed)
	for t0 := time.Now(); time.Since(t0) < warmup; {
		c := warm.next()
		res, err := koopmancrc.Search(ctx, c)
		if err != nil {
			e.tally.Op(fmt.Errorf("warm-up search [%d,%d): %w", c.StartIdx, c.EndIdx, err))
			continue
		}
		e.tally.Check(res.Candidates == searchJob, "warm-up search [%d,%d): %d candidates, want %d", c.StartIdx, c.EndIdx, res.Candidates, searchJob)
	}
	jobs := newSearchJobs(e.seed)
	var lat []float64
	var candidates, survivorsN uint64
	var survivors []koopmancrc.Polynomial
	var busy time.Duration
	var census time.Duration
	start := time.Now()
	for job := uint64(0); job == 0 || time.Since(start) < time.Duration(e.seconds)*time.Second; job++ {
		c := jobs.next()
		jctx, end := e.tracer.Start(ctx, "core.search_job")
		t0 := time.Now()
		res, err := searchCall(jctx, e, c, &busy, &census)
		lat = append(lat, ms(time.Since(t0)))
		end()
		if err != nil {
			e.tally.Op(fmt.Errorf("search [%d,%d): %w", c.StartIdx, c.EndIdx, err))
			continue
		}
		want := canonicalCount(searchWidth, c.StartIdx, c.EndIdx)
		e.tally.Check(res.Candidates == want, "search [%d,%d): %d candidates, slice has %d canonical", c.StartIdx, c.EndIdx, res.Candidates, want)
		candidates += res.Candidates
		survivorsN += uint64(len(res.Survivors))
		survivors = append(survivors, res.Survivors...)
	}
	wall := time.Since(start)
	rss := peakRSSSelfMiB() // before the verification's own sessions
	period := verifySurvivors(ctx, e, survivors)
	tm := summarize(lat)
	rate := float64(candidates) / wall.Seconds()
	out := &outcome{
		e2e: map[string]float64{
			"setup_s":      setup,
			"peak_rss_mib": rss,
			"ops_per_s":    rate,
			"p50_ms":       tm.P50,
			"tail_ms":      tm.Tail,
		},
		named: map[string]Metric{
			"search_polys_per_s":              {rate, "1/s"},
			"search_candidates":               {float64(candidates), "count"},
			"search_survivors":                {float64(survivorsN), "count"},
			"search_job_p50_ms":               {tm.P50, "ms"},
			"search_job_tail_ms." + tm.TailAt: {tm.Tail, "ms"},
			"search_job_samples":              {float64(tm.N), "count"},
		},
	}
	if e.tracer != nil {
		// Work figures are per job: the number of jobs grows with the
		// engine's speed, so totals would not move with the work one job
		// does. core.candidates stays a total, the run's throughput.
		n := float64(len(lat))
		out.layers = map[string]float64{
			"core.candidates":    float64(candidates),
			"core.survivors":     float64(survivorsN) / n,
			"core.filter_busy_s": busy.Seconds() / n,
			"core.parallel_eff":  busy.Seconds() / (wall.Seconds() * searchWorkers),
			"gf2.census_s":       census.Seconds() / n,
			"gf2.period_s":       period.Seconds() / n,
		}
	}
	return out, nil
}

// searchCall is one Search job. Traced, it runs the same pipeline
// Search builds, through core.Pipeline directly, so the per-stage busy
// time is visible; untraced it calls the public koopmancrc.Search.
func searchCall(ctx context.Context, e *env, c koopmancrc.SearchConfig, busy, census *time.Duration) (*koopmancrc.SearchResult, error) {
	if e.tracer == nil {
		return koopmancrc.Search(ctx, c)
	}
	space, err := core.NewSpace(c.Width)
	if err != nil {
		return nil, err
	}
	pl := &core.Pipeline{
		Space:   space,
		Filters: []core.Filter{core.HDFilter{Lengths: c.Lengths, MinHD: c.MinHD, Engine: core.EngineFast}},
		Workers: c.Parallelism,
	}
	rctx, end := e.tracer.Start(ctx, "core.pipeline_run")
	res, err := pl.Run(rctx, c.StartIdx, c.EndIdx)
	end()
	if err != nil {
		return nil, err
	}
	for _, s := range res.Stages {
		*busy += s.Elapsed
	}
	_, end = e.tracer.Start(ctx, "gf2.census")
	t0 := time.Now()
	shapes, err := core.Census(res.Survivors)
	*census += time.Since(t0)
	end()
	if err != nil {
		return nil, err
	}
	return &koopmancrc.SearchResult{Survivors: res.Survivors, Candidates: res.Canonical, CensusByShape: shapes}, nil
}

// verifySurvivors re-checks every survivor through the public Analyzer:
// no undetectable pattern of weight below searchHD at the target length.
// It runs after the timed loop and returns the time spent computing the
// survivors' periods (gf2) when traced.
func verifySurvivors(ctx context.Context, e *env, survivors []koopmancrc.Polynomial) time.Duration {
	target := searchLengths[len(searchLengths)-1]
	var mu sync.Mutex
	var period time.Duration
	var wg sync.WaitGroup
	next := make(chan koopmancrc.Polynomial)
	for w := 0; w < searchWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range next {
				an := koopmancrc.NewAnalyzer(p, koopmancrc.WithMaxHD(searchHD-1))
				hd, _, err := an.HDAt(ctx, target)
				if err != nil {
					e.tally.Op(fmt.Errorf("verify %v: %w", p, err))
					continue
				}
				e.tally.Check(hd >= searchHD, "survivor %#x has HD %d at %d bits, want >= %d", p.Koopman(), hd, target, searchHD)
				if e.tracer != nil {
					t0 := time.Now()
					_, _ = an.Period()
					mu.Lock()
					period += time.Since(t0)
					mu.Unlock()
				}
			}
		}()
	}
	for _, p := range survivors {
		next <- p
	}
	close(next)
	wg.Wait()
	return period
}
