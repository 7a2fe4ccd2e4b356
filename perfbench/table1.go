package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"time"

	"koopmancrc"
	"koopmancrc/internal/paperdata"
)

// The table1 workload reproduces the paper's own computation in
// process: the HD-vs-length profile of every Table 1 column, the §3
// exact weights at the 12112-bit MTU, and a set of seeded random
// generators so that no change can be tuned to the eight columns alone.
const (
	// table1Len is the reduced profile length. Every column's profile
	// to this length crosses at least one paper anchor.
	table1Len = 256
	// table1MaxHD caps each column's profile depth. The columns' own
	// depth (13) costs about 20 s per pass on a 2-CPU host — longer
	// than a run — almost all of it in weights 9–13 below 60 bits.
	table1MaxHD = 8
	// table1Random random generators are profiled per pass, at
	// randomLen with depth randomMaxHD: enough of them that their
	// seed-to-seed cost differences average out.
	table1Random = 12
	randomLen    = 512
	randomMaxHD  = 6
	// w4Anchor is the paper's §3 count of undetectable 4-bit errors of
	// IEEE 802.3 at the MTU length.
	w4Anchor = 223059
)

// t1job is one polynomial's analysis in a pass.
type t1job struct {
	label   string
	p       koopmancrc.Polynomial
	maxHD   int
	length  int
	col     *paperdata.Column // nil for random generators
	weights []int             // exact weights at the MTU length
}

var table1Columns = paperdata.Table1Columns()

func table1Jobs(seed int64) []t1job {
	var jobs []t1job
	cols := table1Columns
	for i := range cols {
		c := &cols[i]
		j := t1job{label: c.Label, p: c.P, maxHD: min(c.MaxHD, table1MaxHD), length: table1Len, col: c, weights: []int{2, 3}}
		if c.P.Koopman() == koopmancrc.IEEE8023.Koopman() {
			j.weights = []int{2, 3, 4}
		}
		jobs = append(jobs, j)
	}
	for _, p := range randomPolys(seed, table1Random, cols) {
		jobs = append(jobs, t1job{label: fmt.Sprintf("random %#x", p.Koopman()), p: p, maxHD: randomMaxHD, length: randomLen})
	}
	return jobs
}

// randomPolys draws n distinct 32-bit generators from the seed,
// skipping the Table 1 columns.
func randomPolys(seed int64, n int, cols []paperdata.Column) []koopmancrc.Polynomial {
	r := rand.New(rand.NewSource(seed))
	seen := map[uint64]bool{}
	for _, c := range cols {
		seen[c.P.Koopman()] = true
	}
	var out []koopmancrc.Polynomial
	for len(out) < n {
		k := uint64(r.Uint32() | 1<<31)
		if seen[k] {
			continue
		}
		seen[k] = true
		p, err := koopmancrc.ParsePolynomial(32, koopmancrc.Koopman, strconv.FormatUint(k, 16))
		if err != nil {
			panic(err) // every 32-bit value with the top bit set is a valid generator
		}
		out = append(out, p)
	}
	return out
}

// t1stats accumulates the engine's work across a run.
type t1stats struct {
	stats    koopmancrc.EvalStats
	busy     time.Duration // inside Analyzer calls
	evaluate time.Duration
	weight   time.Duration
	period   time.Duration
	census   time.Duration
	// gcEach collects the heap before each analysis and records the
	// heap in use with the session live in peakHeapMB.
	gcEach     bool
	peakHeapMB float64
}

func runTable1(ctx context.Context, e *env) (*outcome, error) {
	setup, err := probeSetup(e, "table1")
	if err != nil {
		return nil, err
	}
	jobs := table1Jobs(e.seed)
	var st t1stats
	// Warm up untimed on the columns' profiles (the first one that needs
	// the 512 MiB bitmap grows the heap to its working size).
	for i, t0 := 0, time.Now(); time.Since(t0) < warmup; i++ {
		table1Job(ctx, &env{tally: e.tally}, jobs[i%len(table1Columns)], &t1stats{})
	}
	// Latency is taken over the Table 1 columns, whose work is the same
	// for every seed; the random generators count in the throughput.
	var lat []float64
	var passes []float64
	var rss []float64 // resident set after each analysis, MiB
	ops := 0
	start := time.Now()
	// Passes run until the next one would end more than half a pass
	// past the run length.
	budget := time.Duration(e.seconds) * time.Second
	for len(passes) == 0 || time.Since(start)+time.Duration(passes[len(passes)-1]*float64(time.Second))/2 < budget {
		pctx, end := e.tracer.Start(ctx, "table1.pass")
		t0 := time.Now()
		// The collector runs at its own pace, as it does for a
		// long-lived caller, so the resident set read after each
		// analysis holds the session and its scratch together with what
		// the collector has not yet reclaimed.
		for _, j := range jobs {
			d := table1Job(pctx, e, j, &st)
			ops++
			if j.col != nil {
				lat = append(lat, ms(d))
			}
			r, err := residentMiB()
			if err != nil {
				return nil, err
			}
			rss = append(rss, r)
		}
		passes = append(passes, time.Since(t0).Seconds())
		end()
	}
	wall := time.Since(start).Seconds()
	tm := summarize(lat)
	// peak_rss_mib is the mean over the analyses, not the process's
	// high-water mark: whether a third 512 MiB bitmap is allocated
	// before the collector frees the last one depends on when it runs,
	// so on a 2-vCPU x86-64 VM the high-water mark read 1.32 or 1.64 GiB
	// from run to run.
	var rssSum float64
	for _, r := range rss {
		rssSum += r
	}
	out := &outcome{
		e2e: map[string]float64{
			"setup_s":      setup,
			"peak_rss_mib": rssSum / float64(len(rss)),
			"ops_per_s":    float64(ops) / wall,
			"p50_ms":       tm.P50,
			"tail_ms":      tm.Tail,
		},
		named: map[string]Metric{
			"table1_s":                       {median(passes), "s"},
			"table1_passes":                  {float64(len(passes)), "count"},
			"table1_op_p50_ms":               {tm.P50, "ms"},
			"table1_op_tail_ms." + tm.TailAt: {tm.Tail, "ms"},
			"table1_op_samples":              {float64(tm.N), "count"},
			"table1_rss_high_water_mib":      {peakRSSSelfMiB(), "MiB"},
		},
	}
	if e.tracer != nil {
		// Work figures are per pass: the number of passes grows with
		// the engine's speed, so totals would not move with the work
		// one pass does.
		n := float64(len(passes))
		out.layers = engineLayers(e.tracer.Spans(), n)
		out.layers["hamming.probes"] = float64(st.stats.Probes) / n
		out.layers["hamming.store_ops"] = float64(st.stats.StoreOps) / n
		out.layers["hamming.early_exits"] = float64(st.stats.EarlyExits) / n
		out.layers["hamming.resolutions"] = float64(st.stats.Resolutions) / n
		out.layers["hamming.probes_per_s"] = float64(st.stats.Probes) / st.busy.Seconds()
		// One more pass, untimed and untraced, collects the heap before
		// each analysis, so the heap read with the session live is that
		// one analysis's.
		heap := t1stats{gcEach: true}
		for _, j := range jobs {
			table1Job(ctx, &env{tally: e.tally}, j, &heap)
		}
		out.layers["hamming.peak_heap_mib"] = heap.peakHeapMB
		out.layers["analyzer.evaluate_s"] = st.evaluate.Seconds() / n
		out.layers["analyzer.weight_s"] = st.weight.Seconds() / n
		out.layers["gf2.period_s"] = st.period.Seconds() / n
		out.layers["gf2.census_s"] = st.census.Seconds() / n
	}
	return out, nil
}

// table1Job analyses one polynomial on a fresh session, checks the
// answers and returns the time spent in the engine calls.
func table1Job(ctx context.Context, e *env, j t1job, st *t1stats) time.Duration {
	ctx, end := e.tracer.Start(ctx, "analyzer.job")
	defer end()
	opts := []koopmancrc.Option{koopmancrc.WithMaxHD(j.maxHD)}
	if e.tracer != nil {
		opts = append(opts, koopmancrc.WithSpans(func(ctx context.Context, s koopmancrc.Span) {
			e.tracer.Ended(ctx, "hamming."+s.Phase, s.Duration)
		}))
	}
	if st.gcEach {
		runtime.GC()
	}
	an := koopmancrc.NewAnalyzer(j.p, opts...)
	var busy time.Duration
	timed := func(name string, fn func(context.Context)) time.Duration {
		cctx, end := e.tracer.Start(ctx, name)
		t0 := time.Now()
		fn(cctx)
		d := time.Since(t0)
		end()
		busy += d
		return d
	}
	st.evaluate += timed("analyzer.evaluate", func(ctx context.Context) {
		rep, err := an.Evaluate(ctx, j.length)
		if err != nil {
			e.tally.Op(fmt.Errorf("%s: evaluate: %w", j.label, err))
			return
		}
		e.tally.Op(checkProfile(j, rep))
	})
	for _, w := range j.weights {
		st.weight += timed("analyzer.weight", func(ctx context.Context) {
			n, err := an.Weight(ctx, w, paperdata.MTUDataBits)
			switch {
			case err != nil:
				e.tally.Op(fmt.Errorf("%s: W%d: %w", j.label, w, err))
			case w < 4:
				// Every column's period exceeds the MTU codeword, so
				// no 2- or 3-bit error goes undetected there.
				e.tally.Check(n == 0, "%s: W%d(%d) = %d, want 0", j.label, w, paperdata.MTUDataBits, n)
			default:
				e.tally.Check(n == w4Anchor, "%s: W4(%d) = %d, want %d", j.label, paperdata.MTUDataBits, n, w4Anchor)
			}
		})
	}
	if st.gcEach {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms) // the session and its scratch are still live here
		st.peakHeapMB = max(st.peakHeapMB, float64(ms.HeapInuse)/(1<<20))
	}
	if e.tracer != nil {
		st.period += timed("gf2.period", func(context.Context) { _, _ = an.Period() })
		st.census += timed("gf2.census", func(context.Context) { _, _ = an.Shape() })
	}
	s := an.Stats()
	st.stats.Probes += s.Probes
	st.stats.StoreOps += s.StoreOps
	st.stats.EarlyExits += s.EarlyExits
	st.stats.Resolutions += s.Resolutions
	st.busy += busy
	return busy
}

// checkProfile compares a profile with every paper anchor the run can
// see (band ends below the run length, at depths the profile
// classifies) and, for any generator, checks that the bands tile the
// lengths with HD falling as length grows.
func checkProfile(j t1job, rep *koopmancrc.Report) error {
	next, prevHD := 1, 1<<30
	for _, b := range rep.Bands {
		if b.From != next || b.To < b.From || b.HD >= prevHD {
			return fmt.Errorf("%s: malformed bands %v", j.label, rep.Bands)
		}
		next, prevHD = b.To+1, b.HD
	}
	if next != j.length+1 {
		return fmt.Errorf("%s: bands end at %d, want %d", j.label, next-1, j.length)
	}
	if j.col == nil {
		return nil
	}
	for _, a := range j.col.Anchors {
		if a.To >= j.length || a.HD > j.maxHD {
			continue
		}
		got, ok := rep.MaxLenAtHD(a.HD)
		if !ok || got != a.To {
			return fmt.Errorf("%s: HD=%d through %d, paper says %d", j.label, a.HD, got, a.To)
		}
	}
	return nil
}

// engineLayers turns the traced engine phases into per-phase self
// times in seconds, divided by passes.
func engineLayers(spans []Span, passes float64) map[string]float64 {
	nestByContainment(spans)
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, ph := range enginePhases {
		out["hamming."+ph+"_s"] = float64(self["hamming."+ph].NS) / 1e9 / passes
	}
	return out
}

var enginePhases = []string{"boundary", "w3_scan", "w4_scan", "mitm_store", "mitm_probe", "w2_count", "w3_count", "w4_count"}
