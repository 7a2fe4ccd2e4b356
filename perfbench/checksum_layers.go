package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"koopmancrc/crchash"
	"koopmancrc/internal/obs"
	"koopmancrc/serve"
)

// probeBudget is how long each in-process layer probe measures.
const probeBudget = 100 * time.Millisecond

// kernelSizes are the payload classes the crc layer is timed at, named
// as in the metric names.
var kernelSizes = []struct {
	name string
	n    int
}{{"64", 64}, {"4k", 4096}, {"1m", 1 << 20}}

var algoShort = map[string]string{"CRC-32C/iSCSI": "crc32c", "CRC-32/IEEE-802.3": "ieee", "CRC-32K/Koopman": "koopman"}

// checksumLayers measures the checksum workload's layers from outside:
// crchash kernels and the serve wire types in process on the workload's
// payloads and bodies, an in-process serve.Server for allocations and
// the tracing cost, and crcserve's own /metrics for server-side time.
func checksumLayers(ctx context.Context, e *env, srv *server, seq []ckReq, st *ckStats) (map[string]float64, error) {
	out := map[string]float64{}

	t0 := time.Now()
	crchash.Remeasure()
	out["crc.auto_profile_s"] = time.Since(t0).Seconds()

	// Kernel throughput on slices of the workload's stream payloads.
	var stream []byte
	for _, q := range seq {
		if q.kind == kindStream {
			stream = q.body
			break
		}
	}
	gbps := map[string]float64{}
	for _, algo := range checksumAlgos {
		eng, err := crchash.ForAlgorithm(algo)
		if err != nil {
			return nil, err
		}
		for _, ks := range kernelSizes {
			data := stream[:ks.n]
			var n int64
			var sink uint32
			start := time.Now()
			for time.Since(start) < probeBudget {
				sink ^= eng.Checksum(data)
				n++
			}
			g := float64(n) * float64(ks.n) / time.Since(start).Seconds() / 1e9
			gbps[algo+"/"+ks.name] = g
			out["crc.gbps."+algoShort[algo]+"."+ks.name] = g
			_ = sink
		}
	}

	p, err := srv.prom(ctx)
	if err != nil {
		return nil, err
	}
	endpoints := []string{"/v1/checksum", "/v1/checksum/batch", "/v1/checksum/stream"}
	var serverBusy float64
	for i, ep := range endpoints {
		lbl := fmt.Sprintf("{endpoint=%q}", ep)
		out["serve.server_us."+kindNames[i]] = meanOf(p, "crcserve_request_duration_seconds", lbl) * 1e6
		serverBusy += p["crcserve_request_duration_seconds_sum"+lbl]
	}
	// Kernel share of server time: the bytes served, at the kernel
	// speed measured for their algorithm and size class.
	var kernel float64
	for i, q := range seq {
		for k, size := range q.sizes {
			class := "4k"
			switch {
			case size >= 1<<20:
				class = "1m"
			case size < 512:
				class = "64"
			}
			kernel += float64(st.served[i]) * float64(size) / (gbps[q.algos[k]+"/"+class] * 1e9)
		}
	}
	out["crc.busy_frac"] = kernel / serverBusy
	var clientMean float64
	for _, v := range st.latMS[kindSingle] {
		clientMean += v
	}
	clientMean = clientMean / float64(len(st.latMS[kindSingle])) * 1000
	out["serve.client_overhead_us"] = clientMean - out["serve.server_us.checksum"]

	if err := wireLayers(seq, out); err != nil {
		return nil, err
	}
	if err := inProcessServeLayers(seq, out); err != nil {
		return nil, err
	}
	out["obs.recorder_ops_per_s"] = recorderOpsPerSec()
	return out, nil
}

// firstOf returns the first request of a kind in the sequence.
func firstOf(seq []ckReq, kind int) *ckReq {
	for i := range seq {
		if seq[i].kind == kind {
			return &seq[i]
		}
	}
	return nil
}

// wireLayers times decoding the workload's request bodies into the serve
// wire types and encoding matching responses.
func wireLayers(seq []ckReq, out map[string]float64) error {
	for _, kind := range []int{kindSingle, kindBatch} {
		var bodies [][]byte
		for _, q := range seq {
			if q.kind == kind {
				bodies = append(bodies, q.body)
			}
		}
		decode := func(b []byte) (any, error) {
			if kind == kindBatch {
				var v serve.ChecksumBatchRequest
				return &v, json.Unmarshal(b, &v)
			}
			var v serve.ChecksumRequest
			return &v, json.Unmarshal(b, &v)
		}
		var n int
		start := time.Now()
		for time.Since(start) < probeBudget {
			if _, err := decode(bodies[n%len(bodies)]); err != nil {
				return err
			}
			n++
		}
		out["serve.decode_us."+kindNames[kind]] = float64(time.Since(start).Microseconds()) / float64(n)

		resp := any(&serve.ChecksumResponse{Algorithm: checksumAlgos[0], Length: 1000, Checksum: 0xdeadbeef, Hex: "0xdeadbeef", Kernel: "hardware"})
		if kind == kindBatch {
			q := firstOf(seq, kindBatch)
			br := &serve.ChecksumBatchResponse{Count: len(q.want)}
			for i, w := range q.want {
				br.Items = append(br.Items, serve.ChecksumBatchItem{Algorithm: q.algos[i], Length: q.sizes[i], Checksum: w, Hex: fmt.Sprintf("%#08x", w), Kernel: "hardware"})
			}
			resp = br
		}
		n = 0
		start = time.Now()
		for time.Since(start) < probeBudget {
			if _, err := json.Marshal(resp); err != nil {
				return err
			}
			n++
		}
		out["serve.encode_us."+kindNames[kind]] = float64(time.Since(start).Microseconds()) / float64(n)
	}
	return nil
}

// inProcessServeLayers drives serve.Server.ServeHTTP directly: heap
// allocations per request at the default configuration, and the cost of
// request tracing as the difference between tracing off and the default,
// against the measured untraced request.
func inProcessServeLayers(seq []ckReq, out map[string]float64) error {
	traced, err := serve.New(serve.Config{})
	if err != nil {
		return err
	}
	defer traced.Close()
	untraced, err := serve.New(serve.Config{TraceBuffer: -1})
	if err != nil {
		return err
	}
	defer untraced.Close()

	call := func(h http.Handler, q *ckReq) error {
		req := httptest.NewRequest(http.MethodPost, q.path, bytes.NewReader(q.body))
		req.Header.Set("Content-Type", q.ctype)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("in-process %s: %d %s", q.path, rec.Code, strings.TrimSpace(rec.Body.String()))
		}
		return nil
	}
	for _, kind := range []int{kindSingle, kindBatch} {
		q := firstOf(seq, kind)
		const n = 200
		if err := call(traced, q); err != nil {
			return err
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < n; i++ {
			if err := call(traced, q); err != nil {
				return err
			}
		}
		runtime.ReadMemStats(&m1)
		out["serve.allocs_per_req."+kindNames[kind]] = float64(m1.Mallocs-m0.Mallocs) / n
	}

	// Interleaved blocks of single checksum requests, tracing off then
	// on; the per-request medians of the blocks are compared.
	var singles []*ckReq
	for i := range seq {
		if seq[i].kind == kindSingle {
			singles = append(singles, &seq[i])
		}
	}
	block := func(h http.Handler) (float64, error) {
		start := time.Now()
		for _, q := range singles {
			if err := call(h, q); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(len(singles)), nil
	}
	var off, on []float64
	for i := 0; i < 15; i++ {
		a, err := block(untraced)
		if err != nil {
			return err
		}
		b, err := block(traced)
		if err != nil {
			return err
		}
		off, on = append(off, a), append(on, b)
	}
	base := median(off)
	out["obs.trace_overhead_us"] = median(on) - base
	out["obs.trace_overhead_pct"] = (median(on) - base) / base * 100
	return nil
}

// recorderOpsPerSec is the flight recorder's raw admission rate over
// prebuilt span trees with distinct trace IDs.
func recorderOpsPerSec() float64 {
	tds := make([]*obs.TraceData, 512)
	for i := range tds {
		tr := obs.NewTrace("/v1/checksum")
		sp := tr.Root().StartChild("child")
		sp.End()
		tr.Root().End()
		tds[i] = tr.Data()
	}
	rec := obs.NewFlightRecorder(256, 0.1)
	var ops int
	start := time.Now()
	for time.Since(start) < probeBudget {
		rec.Record(tds[ops%len(tds)])
		ops++
	}
	return float64(ops) / time.Since(start).Seconds()
}
