package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"koopmancrc"
	"koopmancrc/internal/paperdata"
	"koopmancrc/serve"
)

// The analysis workload serves a seeded, Zipf-repeating sequence of
// /v1/hd, /v1/maxlen, /v1/evaluate and /v1/select requests from a
// crcserve with a fresh corpus at its default pool and limits, then
// restarts crcserve on the same corpus and replays the sequence. Every
// distinct request is cold once (engine work from 1 ms to about 1 s) and
// warm afterwards; the replay is answered from the corpus.
const (
	anRandom = 8 // random generators besides the Table 1 columns
	// Each kind of request runs at its own depth, so every distinct
	// request has a session of its own in the pool and its cold cost
	// does not depend on which request reached the session first. The
	// depths and lengths keep all but the bitmap request below the
	// engine's 512 MiB meet-in-the-middle bitmap: one session keeps it,
	// and peak_rss_mib shows that retention. (A select explores one
	// weight beyond its depth out to four times its length; at depth 5
	// that reaches weight 6, which takes the bitmap path for every HD-6
	// candidate.)
	anShortLen    = 400
	anShortMaxHD  = 4
	anLongLen     = 1024
	anLongMaxHD   = 5
	anEvalLen     = 512
	anEvalMaxHD   = 6
	anBitmapMaxHD = 7
	anMaxLenHD    = 5 // columns; random generators ask for HD 4
	anHorizon     = 4096
	anSelectLen   = 256
	anSelectMaxHD = 3
	anSelects     = 6 // select requests of three Table 1 columns
	// anRepeats is the number of repeated (warm) requests in the
	// sequence.
	anRepeats = 1500
	anZipfS   = 1.1
	anClients = 2
	// anSamples requests of the phase-one sequence are recomputed in
	// process and compared.
	anSamples = 4
)

// anReq is one distinct request.
type anReq struct {
	path string
	body []byte
	// local recomputes the answer in process, for the sampled check;
	// nil for kinds not sampled.
	local func(ctx context.Context) ([]byte, error)
}

func polyRef(p koopmancrc.Polynomial) serve.PolyRef {
	return serve.PolyRef{Poly: fmt.Sprintf("%#x", p.Koopman()), Width: 32, Notation: "koopman"}
}

// anKeys builds the distinct requests. The Table 1 columns carry the
// cold work: HD at two lengths, the longest HD-5 length, a profile (half
// of them with exact weights) and select rankings of column triples. The
// random generators get cheap HD and HD-4 length queries, so the seed
// moves the run's figures little. The bitmap request comes last.
func anKeys(seed int64) ([]anReq, error) {
	cols := paperdata.Table1Columns()
	var keys []anReq
	add := func(path string, v any, local func(ctx context.Context) (any, error)) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		k := anReq{path: path, body: b}
		if local != nil {
			k.local = func(ctx context.Context) ([]byte, error) {
				v, err := local(ctx)
				if err != nil {
					return nil, err
				}
				return json.Marshal(v)
			}
		}
		keys = append(keys, k)
		return nil
	}
	hd := func(p koopmancrc.Polynomial, n, maxHD int) error {
		ref := polyRef(p)
		return add("/v1/hd", serve.HDRequest{PolyRef: ref, DataLen: n, MaxHD: maxHD}, func(ctx context.Context) (any, error) {
			hd, exact, err := koopmancrc.NewAnalyzer(p, koopmancrc.WithMaxHD(maxHD)).HDAt(ctx, n)
			return serve.HDResponse{Poly: ref.Poly, DataLen: n, HD: hd, Exact: exact}, err
		})
	}
	maxLen := func(p koopmancrc.Polynomial, want int) error {
		ref := polyRef(p)
		return add("/v1/maxlen", serve.MaxLenRequest{PolyRef: ref, HD: want, Horizon: anHorizon}, func(ctx context.Context) (any, error) {
			n, ok, err := koopmancrc.NewAnalyzer(p).MaxLenAtHD(ctx, want, anHorizon)
			return serve.MaxLenResponse{Poly: ref.Poly, HD: want, Horizon: anHorizon, MaxLen: n, OK: ok}, err
		})
	}
	for i, c := range cols {
		p := c.P
		if err := hd(p, anShortLen, anShortMaxHD); err != nil {
			return nil, err
		}
		if err := hd(p, anLongLen, anLongMaxHD); err != nil {
			return nil, err
		}
		if err := maxLen(p, anMaxLenHD); err != nil {
			return nil, err
		}
		req := serve.EvaluateRequest{PolyRef: polyRef(p), MaxLen: anEvalLen, MaxHD: anEvalMaxHD}
		if i%2 == 0 {
			req.Weights = []int{400, 1024}
		}
		if err := add("/v1/evaluate", req, func(ctx context.Context) (any, error) {
			an := koopmancrc.NewAnalyzer(p, koopmancrc.WithMaxHD(anEvalMaxHD))
			rep, err := an.Evaluate(ctx, anEvalLen)
			if err != nil {
				return nil, err
			}
			w, err := serve.WeightCounts(ctx, an, req.Weights)
			if err != nil {
				return nil, err
			}
			return serve.NewEvaluateResponse(rep, anEvalMaxHD, w), nil
		}); err != nil {
			return nil, err
		}
	}
	for _, p := range randomPolys(seed, anRandom, cols) {
		if err := hd(p, anShortLen, anShortMaxHD); err != nil {
			return nil, err
		}
		if err := maxLen(p, anMaxLenHD-1); err != nil {
			return nil, err
		}
	}
	r := rand.New(rand.NewSource(seed + 1))
	for i := 0; i < anSelects; i++ {
		req := serve.SelectRequest{DataLen: anSelectLen, MaxHD: anSelectMaxHD}
		for _, k := range r.Perm(len(cols))[:3] {
			req.Candidates = append(req.Candidates, polyRef(cols[k].P))
		}
		if err := add("/v1/select", req, nil); err != nil {
			return nil, err
		}
	}
	// The bitmap request: an HD query long enough that CRC-32/6 (HD 5
	// there) needs the whole-space meet-in-the-middle bitmap.
	if err := hd(koopmancrc.CastagnoliHD5, paperdata.Ack512DataBits, anBitmapMaxHD); err != nil {
		return nil, err
	}
	return keys, nil
}

// anShares is how the repeated requests divide between the endpoints;
// within an endpoint, popularity is Zipf over its keys in a seeded
// order. The shares, the Zipf exponent and the number of repeats are an
// assumption, not a measurement of real traffic: nothing in the
// repository says how callers divide their queries. Fixing the mix
// keeps the share of large responses (profiles) the same whatever the
// seed.
var anShares = []struct {
	path  string
	share float64
}{{"/v1/hd", 0.40}, {"/v1/maxlen", 0.20}, {"/v1/evaluate", 0.25}, {"/v1/select", 0.15}}

// anSequence orders every key once (its cold request) among the
// repeats, shuffled by the seed. The bitmap request, the last key, goes
// first: the 512 MiB its session keeps then sets the server's heap goal
// for the whole run, whatever the seed's order of the rest.
func anSequence(seed int64, keys []anReq) []int {
	r := rand.New(rand.NewSource(seed + 2))
	seq := make([]int, 0, len(keys)+anRepeats)
	byPath := map[string][]int{}
	for i, k := range keys {
		seq = append(seq, i)
		byPath[k.path] = append(byPath[k.path], i)
	}
	zipf := map[string]*rand.Zipf{}
	for _, sh := range anShares { // a fixed order: the seed alone decides the draws
		ks := byPath[sh.path]
		r.Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] }) // popularity order
		zipf[sh.path] = rand.NewZipf(r, anZipfS, 1, uint64(len(ks)-1))
	}
	for i := 0; i < anRepeats; i++ {
		u := r.Float64()
		for _, sh := range anShares {
			if u -= sh.share; u < 0 || sh.path == anShares[len(anShares)-1].path {
				seq = append(seq, byPath[sh.path][zipf[sh.path].Uint64()])
				break
			}
		}
	}
	r.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	bitmap := len(keys) - 1
	for i, k := range seq {
		if k == bitmap {
			seq[0], seq[i] = seq[i], seq[0]
			break
		}
	}
	return seq
}

// anPhase is what serving the sequence once measured.
type anPhase struct {
	lat    []float64 // ms per request
	bodies [][]byte  // response per sequence position
	wall   time.Duration
	// srvCPU is the CPU time crcserve was charged while serving, and
	// share the share of the host's CPUs crcserve and the clients were
	// charged (see runChecksum).
	srvCPU, share float64
}

func runAnalysis(ctx context.Context, e *env) (*outcome, error) {
	keys, err := anKeys(e.seed)
	if err != nil {
		return nil, err
	}
	// Cycles of cold serving and restart replay, each on a fresh corpus,
	// repeat until the run length has passed; figures are the medians
	// over cycles. A traced run makes one cycle. Each cycle serves its
	// own ordering of the requests, drawn from the seed: where the cold
	// requests fall decides how much warm traffic shares the CPUs with
	// engine work, and with one ordering per run the seed moved every
	// endpoint's median latency together by up to a fifth.
	var cycles []*anCycle
	start := time.Now()
	for len(cycles) == 0 || (e.tracer == nil && time.Since(start) < time.Duration(e.seconds)*time.Second) {
		reps := 1
		if len(cycles) == 0 {
			reps = setupReps
		}
		seq := anSequence(e.seed^int64(len(cycles))<<32, keys)
		c, err := analysisCycle(ctx, e, keys, seq, reps)
		if err != nil {
			return nil, err
		}
		cycles = append(cycles, c)
	}
	checkSample(ctx, e, keys, cycles[0].seq, cycles[0].one)

	// As on checksum, the reported rate and latencies are measured
	// against the CPU time the loop was given: requests per crcserve
	// CPU-second, and latencies scaled by the CPU share. The wall-clock
	// figures are kept as named lines.
	var fresh, reopen, rss, qps, p50, tail, wallQPS, wallP50, wallTail, shares, warm []float64
	for _, c := range cycles {
		fresh, reopen = append(fresh, c.fresh...), append(reopen, c.reopen...)
		t := summarize(c.one.lat)
		rss = append(rss, c.rss)
		qps = append(qps, float64(len(c.one.lat))/c.one.srvCPU)
		p50, tail = append(p50, t.P50*c.one.share), append(tail, t.Tail*c.one.share)
		wallQPS = append(wallQPS, float64(len(c.one.lat))/c.one.wall.Seconds())
		wallP50, wallTail = append(wallP50, t.P50), append(wallTail, t.Tail)
		shares = append(shares, c.one.share)
		warm = append(warm, summarize(c.two.lat).Tail)
	}
	t1, t2 := summarize(cycles[0].one.lat), summarize(cycles[0].two.lat)
	out := &outcome{
		e2e: map[string]float64{
			"setup_s":      median(fresh) + median(reopen),
			"peak_rss_mib": median(rss),
			"ops_per_s":    median(qps),
			"p50_ms":       median(p50),
			"tail_ms":      median(tail),
		},
		named: map[string]Metric{
			"analysis_qps":                  {median(wallQPS), "1/s"},
			"analysis_p50_ms":               {median(wallP50), "ms"},
			"analysis_" + t1.TailAt + "_ms": {median(wallTail), "ms"},
			"analysis_qps_per_cpu_s":        {median(qps), "1/s"},
			"analysis_cpu_share":            {median(shares), "ratio"},
			"analysis_samples":              {float64(t1.N), "count"},
			"warm_" + t2.TailAt + "_ms":     {median(warm), "ms"},
			"analysis_cycles":               {float64(len(cycles)), "count"},
			"analysis_distinct_requests":    {float64(len(keys)), "count"},
		},
	}
	if e.tracer != nil {
		out.layers = cycles[0].layers
		out.layers["corpus.reopen_s"] = median(reopen)
	}
	return out, nil
}

// anCycle is one cold serving pass and its restart replay.
type anCycle struct {
	seq           []int // positions in keys, in serving order
	one, two      *anPhase
	fresh, reopen []float64 // start-to-healthy seconds
	rss           float64   // the larger server peak, MiB
	layers        map[string]float64
}

// analysisCycle serves the sequence from a crcserve on a fresh corpus,
// restarts crcserve on that corpus and replays the sequence, checking
// that the replay answers byte for byte as the first pass did. Each
// start is made reps times and the last server kept; the earlier fresh
// starts use scratch corpora.
func analysisCycle(ctx context.Context, e *env, keys []anReq, seq []int, reps int) (*anCycle, error) {
	dir, err := os.MkdirTemp(e.out, "corpus-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var extra []string
	if e.tracer != nil {
		extra = []string{"-tracesample", "1"}
	}
	logPath := filepath.Join(e.out, fmt.Sprintf("crcserve-analysis-s%d.log", e.seed))
	c := &anCycle{seq: seq, layers: map[string]float64{}}
	start := func(fresh bool) (*server, []float64, error) {
		var times []float64
		for i := 0; i < reps; i++ {
			d := dir
			if fresh && i < reps-1 {
				if d, err = os.MkdirTemp(e.out, "corpus-"); err != nil {
					return nil, nil, err
				}
				defer os.RemoveAll(d)
			}
			s, err := startServer(e.crcserve, logPath, append([]string{"-corpus", d}, extra...)...)
			if err != nil {
				return nil, nil, err
			}
			times = append(times, s.ready.Seconds())
			if i == reps-1 {
				return s, times, nil
			}
			if _, err := s.stop(); err != nil {
				return nil, nil, err
			}
		}
		panic("unreachable: reps >= 1")
	}
	phase := func(fresh bool) (*anPhase, float64, error) {
		srv, times, err := start(fresh)
		if err != nil {
			return nil, 0, err
		}
		if fresh {
			c.fresh = times
		} else {
			c.reopen = times
		}
		cpu0, err := readCPU(srv.cmd.Process.Pid)
		if err != nil {
			srv.stop()
			return nil, 0, err
		}
		ph := serveSequence(ctx, e, srv, keys, seq)
		cpu1, err := readCPU(srv.cmd.Process.Pid)
		if err != nil {
			srv.stop()
			return nil, 0, err
		}
		ph.srvCPU = cpu1.server - cpu0.server
		ph.share = (ph.srvCPU + cpu1.self - cpu0.self) / (float64(runtime.NumCPU()) * ph.wall.Seconds())
		if ph.srvCPU <= 0 {
			srv.stop()
			return nil, 0, errors.New("crcserve was charged no CPU time for the sequence")
		}
		if e.tracer != nil {
			if err := analysisServerLayers(ctx, e, srv, c.layers, !fresh); err != nil {
				srv.stop()
				return nil, 0, err
			}
		}
		rss, err := srv.stop()
		return ph, rss, err
	}
	var rss1, rss2 float64
	if c.one, rss1, err = phase(true); err != nil {
		return nil, err
	}
	if c.two, rss2, err = phase(false); err != nil {
		return nil, err
	}
	c.rss = max(rss1, rss2)
	for i := range seq {
		if c.one.bodies[i] != nil && c.two.bodies[i] != nil {
			e.tally.Check(bytes.Equal(c.one.bodies[i], c.two.bodies[i]), "%s %s: restart answered %s, first run %s",
				keys[seq[i]].path, keys[seq[i]].body, c.two.bodies[i], c.one.bodies[i])
		}
	}
	return c, nil
}

// serveSequence sends the sequence from closed-loop clients, client c
// taking every anClients-th request from position c, and records each
// response body for the byte comparison.
func serveSequence(ctx context.Context, e *env, srv *server, keys []anReq, seq []int) *anPhase {
	ph := &anPhase{bodies: make([][]byte, len(seq))}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < anClients; c++ {
		wg.Add(1)
		go func(first int) {
			defer wg.Done()
			c, err := dial(srv)
			if err != nil {
				e.tally.Op(err)
				return
			}
			defer c.close()
			var lat []float64
			for i := first; i < len(seq); i += anClients {
				k := keys[seq[i]]
				rctx, end := e.tracer.Start(ctx, "client."+k.path)
				t0 := time.Now()
				resp, err := c.post(k.path, "application/json", k.body)
				d := time.Since(t0)
				end()
				if err != nil {
					e.tally.Op(fmt.Errorf("%s %s: %w", k.path, k.body, err))
					break // the connection is unusable
				}
				if resp.status != http.StatusOK {
					e.tally.Op(fmt.Errorf("%s %s: status %d: %s", k.path, k.body, resp.status, bytes.TrimSpace(resp.body)))
					continue
				}
				e.tally.Op(nil)
				lat = append(lat, ms(d))
				ph.bodies[i] = bytes.TrimSpace(resp.body) // each position is written by one client only
				if e.tracer != nil {
					reqID, spanID := e.tracer.RequestOf(rctx)
					_ = srv.pullTrace(ctx, e.tracer, spanID, reqID, resp.traceID) // an evicted trace is only a missing sample
				}
			}
			mu.Lock()
			ph.lat = append(ph.lat, lat...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	return ph
}

// checkSample recomputes a seeded sample of the sequence's requests on
// in-process Analyzers and compares the encoded answers byte for byte.
func checkSample(ctx context.Context, e *env, keys []anReq, seq []int, one *anPhase) {
	r := rand.New(rand.NewSource(e.seed + 3))
	checked := 0
	for _, i := range r.Perm(len(seq)) {
		k := keys[seq[i]]
		if k.local == nil || one.bodies[i] == nil {
			continue
		}
		want, err := k.local(ctx)
		if err != nil {
			e.tally.Op(fmt.Errorf("in-process %s %s: %w", k.path, k.body, err))
		} else {
			e.tally.Check(bytes.Equal(want, one.bodies[i]), "%s %s: served %s, in process %s", k.path, k.body, one.bodies[i], want)
		}
		if checked++; checked == anSamples {
			return
		}
	}
}
