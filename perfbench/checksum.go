package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"koopmancrc/crchash"
	"koopmancrc/serve"
)

// The checksum workload drives the real crcserve binary on loopback, at
// its defaults (tracing included), with a fixed seeded sequence of
// requests from closed-loop clients: each caller (an ingestion job)
// waits for its reply before sending the next request.
//
// The mix below — how many requests of each kind, the algorithms'
// shares and the payload sizes — is an assumption, not a measurement
// of real traffic: nothing in the repository says how callers divide
// their work. It was chosen so that every kind of request and every
// algorithm carries weight and the figures repeat from run to run.
var checksumAlgos = []string{"CRC-32C/iSCSI", "CRC-32/IEEE-802.3", "CRC-32K/Koopman"}

const (
	ckSingles     = 180     // /v1/checksum calls per sequence
	ckBatches     = 16      // /v1/checksum/batch calls per sequence
	ckBatchItems  = 64      // items per batch
	ckStreamBytes = 4 << 20 // body of each /v1/checksum/stream call
	ckMinItem     = 64      // single and batch item payloads are log-uniform in [64 B, 4 KiB]
	ckMaxItem     = 4096
	ckClients     = 2 // closed-loop callers, one connection each
	// ckTraceEvery is how often the traced run pulls a request's span
	// tree from /v1/traces.
	ckTraceEvery = 16
)

const (
	kindSingle = iota
	kindBatch
	kindStream
)

var kindNames = []string{"checksum", "batch", "stream"}

// ckStreamAlgos are the streams of one sequence. CRC-32K, served by the
// portable kernel, is the slowest stream and makes up 2% of the
// requests, so the sequence's p99 latency sits inside that one class of
// long transfers rather than on an edge between classes: the workload's
// tail is the latency of a 4 MiB CRC-32K stream.
var ckStreamAlgos = []string{
	"CRC-32K/Koopman", "CRC-32K/Koopman", "CRC-32K/Koopman", "CRC-32K/Koopman",
	"CRC-32C/iSCSI", "CRC-32C/iSCSI", "CRC-32/IEEE-802.3", "CRC-32/IEEE-802.3",
}

// ckReq is one prepared request and the checksums it must return.
type ckReq struct {
	kind  int
	path  string
	ctype string
	body  []byte
	want  []uint32
	sizes []int // payload bytes per item
	algos []string
}

// ckSequence builds the workload's request sequence from the seed: the
// mix of request kinds, algorithms and payload sizes is fixed, the seed
// picks the payload bytes, item sizes and order.
func ckSequence(seed int64) ([]ckReq, error) {
	r := rand.New(rand.NewSource(seed))
	payload := func(n int) []byte {
		b := make([]byte, n)
		r.Read(b)
		return b
	}
	itemSize := func() int {
		return int(ckMinItem * math.Pow(ckMaxItem/ckMinItem, r.Float64()))
	}
	var seq []ckReq
	for i := 0; i < ckSingles; i++ {
		algo := checksumAlgos[i%len(checksumAlgos)]
		data := payload(itemSize())
		body, err := json.Marshal(serve.ChecksumRequest{Algorithm: algo, Data: data})
		if err != nil {
			return nil, err
		}
		want, err := referenceCRC(algo, data)
		if err != nil {
			return nil, err
		}
		seq = append(seq, ckReq{kind: kindSingle, path: "/v1/checksum", ctype: "application/json", body: body,
			want: []uint32{want}, sizes: []int{len(data)}, algos: []string{algo}})
	}
	for i := 0; i < ckBatches; i++ {
		var req serve.ChecksumBatchRequest
		q := ckReq{kind: kindBatch, path: "/v1/checksum/batch", ctype: "application/json"}
		for k := 0; k < ckBatchItems; k++ {
			algo := checksumAlgos[(i+k)%len(checksumAlgos)]
			data := payload(itemSize())
			want, err := referenceCRC(algo, data)
			if err != nil {
				return nil, err
			}
			req.Items = append(req.Items, serve.ChecksumRequest{Algorithm: algo, Data: data})
			q.want, q.sizes, q.algos = append(q.want, want), append(q.sizes, len(data)), append(q.algos, algo)
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		q.body = body
		seq = append(seq, q)
	}
	for _, algo := range ckStreamAlgos {
		data := payload(ckStreamBytes)
		want, err := referenceCRC(algo, data)
		if err != nil {
			return nil, err
		}
		seq = append(seq, ckReq{kind: kindStream, path: "/v1/checksum/stream?algorithm=" + url.QueryEscape(algo),
			ctype: "application/octet-stream", body: data, want: []uint32{want}, sizes: []int{len(data)}, algos: []string{algo}})
	}
	r.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq, nil
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// referenceCRC computes the expected checksum with an implementation
// independent of the served kernels: the standard library for IEEE and
// Castagnoli, crchash's bit-at-a-time reference engine for CRC-32K.
func referenceCRC(algo string, data []byte) (uint32, error) {
	switch algo {
	case "CRC-32/IEEE-802.3":
		return crc32.ChecksumIEEE(data), nil
	case "CRC-32C/iSCSI":
		return crc32.Checksum(data, castagnoli), nil
	}
	params, err := crchash.Lookup(algo)
	if err != nil {
		return 0, err
	}
	eng, err := crchash.NewEngine(params, crchash.Bitwise)
	if err != nil {
		return 0, err
	}
	return eng.Checksum(data), nil
}

// window is what one second of the measured interval completed.
type window struct {
	items int64
	latMS []float64
}

// windowLen is the length of the measured interval's windows: rates and
// tails are taken per window and reported as their median over the run,
// so that a second in which the host stalled the CPUs does not decide
// the run's figure.
const windowLen = time.Second

// ckStats is what the clients measured.
type ckStats struct {
	mu          sync.Mutex
	latMS       [3][]float64 // per request kind
	items       int64
	streamBytes int64
	streamTime  time.Duration
	served      []int64 // per sequence index: times answered correctly
	windows     []window
}

func runChecksum(ctx context.Context, e *env) (*outcome, error) {
	seq, err := ckSequence(e.seed)
	if err != nil {
		return nil, err
	}
	var args []string
	if e.tracer != nil {
		args = []string{"-tracesample", "1"}
	}
	logPath := filepath.Join(e.out, fmt.Sprintf("crcserve-checksum-s%d.log", e.seed))
	srv, setup, err := startWarm(e, logPath, args)
	if err != nil {
		return nil, err
	}
	st := ckStats{served: make([]int64, len(seq))}
	// The clients warm up (connections open, server heap grown) before
	// the measured interval starts; warm-up answers are checked, not
	// measured.
	start := time.Now().Add(warmup)
	deadline := start.Add(time.Duration(e.seconds) * time.Second)
	var wg sync.WaitGroup
	for c := 0; c < ckClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ckClient(ctx, e, srv, seq, c*len(seq)/ckClients, start, deadline, &st)
		}(c)
	}
	cpu, cpuErr := sampleWindows(srv.cmd.Process.Pid, start, e.seconds)
	wg.Wait()
	if cpuErr != nil {
		srv.stop()
		return nil, cpuErr
	}
	var layers map[string]float64
	if e.tracer != nil {
		layers, err = checksumLayers(ctx, e, srv, seq, &st)
		if err != nil {
			srv.stop()
			return nil, err
		}
	}
	rss, err := srv.stop()
	if err != nil {
		return nil, err
	}
	ts, tb := summarize(st.latMS[kindSingle]), summarize(st.latMS[kindBatch])
	// The rate and the latencies are measured against the CPU time the
	// loop was given rather than the wall clock, so that time the
	// hypervisor took from the guest (steal), or a slow host left the
	// CPUs idle waiting on wake-ups, does not count against the program:
	// the rate is items per crcserve CPU-second, and each window's
	// latencies are scaled by the share of the host's CPUs that crcserve
	// and the clients were charged in the window. Rate and tail are
	// medians over the windows. The wall-clock figures are kept as named
	// lines.
	var rates, wallRates, shares, tails, wallTails, scaled, all []float64
	tailAt := ""
	for k, w := range st.windows {
		srvCPU := cpu[k+1].server - cpu[k].server
		share := (srvCPU + cpu[k+1].self - cpu[k].self) / (float64(runtime.NumCPU()) * windowLen.Seconds())
		if srvCPU <= 0 || share <= 0 {
			return nil, fmt.Errorf("window %d: crcserve was charged no CPU time", k)
		}
		rates = append(rates, float64(w.items)/srvCPU)
		wallRates = append(wallRates, float64(w.items)/windowLen.Seconds())
		shares = append(shares, share)
		t := summarize(w.latMS)
		tails, wallTails, tailAt = append(tails, t.Tail*share), append(wallTails, t.Tail), t.TailAt
		for _, l := range w.latMS {
			scaled = append(scaled, l*share)
		}
		all = append(all, w.latMS...)
	}
	ips, tail := median(rates), median(tails)
	tm, tw := summarize(scaled), summarize(all)
	gbps := float64(st.streamBytes) / st.streamTime.Seconds() / 1e9
	return &outcome{
		e2e: map[string]float64{
			"setup_s":      setup,
			"peak_rss_mib": rss,
			"ops_per_s":    ips,
			"p50_ms":       tm.P50,
			"tail_ms":      tail,
		},
		named: map[string]Metric{
			"checksum_items_per_s":        {median(wallRates), "1/s"},
			"checksum_p50_us":             {tw.P50 * 1000, "us"},
			"checksum_" + tailAt + "_us":  {median(wallTails) * 1000, "us"},
			"checksum_samples":            {float64(tw.N), "count"},
			"checksum_items_per_cpu_s":    {ips, "1/s"},
			"checksum_cpu_share":          {median(shares), "ratio"},
			"checksum_scaled_tail_us":     {tail * 1000, "us"},
			"single_p50_us":               {ts.P50 * 1000, "us"},
			"single_" + ts.TailAt + "_us": {ts.Tail * 1000, "us"},
			"stream_gbps":                 {gbps, "GB/s"},
			"batch_p50_us":                {tb.P50 * 1000, "us"},
			"batch_" + tb.TailAt + "_us":  {tb.Tail * 1000, "us"},
		},
		layers: layers,
	}, nil
}

// startWarm starts crcserve setupReps times, each time until it has
// answered one checksum per algorithm (the first one runs crchash's
// kernel auto-profile), keeps the last server and returns the median
// start-to-warm time.
func startWarm(e *env, logPath string, args []string) (*server, float64, error) {
	var times []float64
	var srv *server
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		s, err := startServer(e.crcserve, logPath, args...)
		if err != nil {
			return nil, 0, err
		}
		for _, algo := range checksumAlgos {
			if err := warmChecksum(s, algo); err != nil {
				s.stop()
				return nil, 0, err
			}
		}
		times = append(times, time.Since(t0).Seconds())
		if i < setupReps-1 {
			if _, err := s.stop(); err != nil {
				return nil, 0, err
			}
			continue
		}
		srv = s
	}
	return srv, median(times), nil
}

func warmChecksum(s *server, algo string) error {
	body, err := json.Marshal(serve.ChecksumRequest{Algorithm: algo, Text: "123456789"})
	if err != nil {
		return err
	}
	resp, err := s.http.Post(s.url+"/v1/checksum", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("warm-up checksum %s: %s", algo, resp.Status)
	}
	return nil
}

// ckClient is one closed-loop caller walking the sequence from offset
// until the deadline, checking every answer and measuring those sent
// from start on.
func ckClient(ctx context.Context, e *env, srv *server, seq []ckReq, offset int, start, deadline time.Time, st *ckStats) {
	c, err := dial(srv)
	if err != nil {
		e.tally.Op(err)
		return
	}
	defer c.close()
	var lat [3][]float64
	var wins []window
	var items, sbytes int64
	var stime time.Duration
	served := make([]int64, len(seq))
	for n := 0; time.Now().Before(deadline); n++ {
		idx := (offset + n) % len(seq)
		q := &seq[idx]
		rctx, end := e.tracer.Start(ctx, "client."+kindNames[q.kind])
		t0 := time.Now()
		resp, err := c.post(q.path, q.ctype, q.body)
		d := time.Since(t0)
		end()
		if err != nil {
			// The connection is unusable; failing every later request
			// on it would count one fault many times.
			e.tally.Op(fmt.Errorf("%s: %w", q.path, err))
			break
		}
		if err := checkChecksum(q, resp.status, resp.body); err != nil {
			e.tally.Op(err)
			continue
		}
		e.tally.Op(nil)
		if t0.Before(start) {
			continue
		}
		served[idx]++
		items += int64(len(q.want))
		lat[q.kind] = append(lat[q.kind], ms(d))
		if w := int(time.Since(start) / windowLen); w < e.seconds {
			for len(wins) <= w {
				wins = append(wins, window{})
			}
			wins[w].items += int64(len(q.want))
			wins[w].latMS = append(wins[w].latMS, ms(d))
		}
		if q.kind == kindStream {
			sbytes += int64(len(q.body))
			stime += d
		}
		if e.tracer != nil && n%ckTraceEvery == 0 {
			reqID, spanID := e.tracer.RequestOf(rctx)
			_ = srv.pullTrace(ctx, e.tracer, spanID, reqID, resp.traceID) // an evicted trace is only a missing sample
		}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for k := range lat {
		st.latMS[k] = append(st.latMS[k], lat[k]...)
	}
	for i, w := range wins {
		for len(st.windows) <= i {
			st.windows = append(st.windows, window{})
		}
		st.windows[i].items += w.items
		st.windows[i].latMS = append(st.windows[i].latMS, w.latMS...)
	}
	st.items += items
	st.streamBytes += sbytes
	st.streamTime += stime
	for i, n := range served {
		st.served[i] += n
	}
}

// checkChecksum compares a response with the reference checksums.
func checkChecksum(q *ckReq, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", q.path, status, body)
	}
	if q.kind == kindBatch {
		var resp serve.ChecksumBatchResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("%s: %w", q.path, err)
		}
		if resp.Failed != 0 || len(resp.Items) != len(q.want) {
			return fmt.Errorf("%s: %d items, %d failed, want %d", q.path, len(resp.Items), resp.Failed, len(q.want))
		}
		for i, it := range resp.Items {
			if it.Checksum != q.want[i] || it.Length != q.sizes[i] {
				return fmt.Errorf("%s item %d (%s, %d B): got %#x, want %#x", q.path, i, q.algos[i], q.sizes[i], it.Checksum, q.want[i])
			}
		}
		return nil
	}
	var resp serve.ChecksumResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("%s: %w", q.path, err)
	}
	if resp.Checksum != q.want[0] || resp.Length != q.sizes[0] {
		return fmt.Errorf("%s (%s, %d B): got %#x, want %#x", q.path, q.algos[0], q.sizes[0], resp.Checksum, q.want[0])
	}
	return nil
}
