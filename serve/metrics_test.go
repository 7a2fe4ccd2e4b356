package serve

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestJSONMetricsFromOneStore drives a scripted request mix and checks
// the JSON /metrics counts against the values the server reported when
// it kept a second, expvar-based copy of them: requests and errors are
// now derived from crcserve_requests_total, batch_items and stream_bytes
// from the batch and stream histograms. The mix covers the cases where
// the two stores could disagree: a 401 refused before routing, a 404
// from a handler, and an SSE evaluation that fails inside its HTTP 200
// stream.
func TestJSONMetricsFromOneStore(t *testing.T) {
	const secret = "sesame"
	_, ts := startServer(t, Config{Token: secret, CorpusDir: t.TempDir()})
	send := func(method, path, body string, auth bool) (int, string) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if auth {
			req.Header.Set("Authorization", "Bearer "+secret)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body) // to EOF: the request is then fully accounted
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(data)
	}

	script := []struct {
		method, path, body string
		auth               bool
		code               int
		contains           string
	}{
		{"POST", "/v1/checksum", `{"algorithm":"CRC-32/IEEE-802.3","text":"123456789"}`, true, 200, `"kernel":"hardware"`},
		{"POST", "/v1/checksum", `{"algorithm":"CRC-99/NO-SUCH","text":"x"}`, true, 404, ""},
		{"POST", "/v1/checksum", `{"algorithm":"CRC-32/IEEE-802.3","text":"x"}`, false, 401, ""},
		{"POST", "/v1/checksum/batch", `{"items":[` +
			`{"algorithm":"CRC-32/IEEE-802.3","text":"123456789"},` +
			`{"algorithm":"CRC-32K/Koopman","text":"123456789"},` +
			`{"algorithm":"CRC-99/NO-SUCH","text":"x"}]}`, true, 200, `"failed":1`},
		{"POST", "/v1/checksum/stream?algorithm=CRC-32C/iSCSI", strings.Repeat("s", 1000), true, 200, `"length":1000`},
		{"POST", "/v1/evaluate?stream=1", `{"poly":"0x82608edb","max_len":2048,"limits":{"max_probes":10}}`, true, 200, "event: error"},
	}
	for _, step := range script {
		code, body := send(step.method, step.path, step.body, step.auth)
		if code != step.code || !strings.Contains(body, step.contains) {
			t.Fatalf("%s %s: %d %s; want %d containing %q", step.method, step.path, code, body, step.code, step.contains)
		}
	}

	code, body := send("GET", "/metrics", "", true)
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d %s", code, body)
	}
	var m metricsSnapshot
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatal(err)
	}
	wantMaps := []struct {
		name      string
		got, want map[string]int64
	}{
		{"requests", m.Requests, map[string]int64{
			"/v1/checksum": 2, "/v1/checksum/batch": 1, "/v1/checksum/stream": 1, "/v1/evaluate": 1,
		}},
		{"errors", m.Errors, map[string]int64{"/v1/checksum": 1, "/v1/evaluate": 1, "auth": 1}},
		{"checksum_kernels", m.Kernels, map[string]int64{"hardware": 3, "slicing16": 1}},
	}
	for _, w := range wantMaps {
		if len(w.got) != len(w.want) {
			t.Errorf("%s = %v, want %v", w.name, w.got, w.want)
			continue
		}
		for k, v := range w.want {
			if w.got[k] != v {
				t.Errorf("%s = %v, want %v", w.name, w.got, w.want)
				break
			}
		}
	}
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"flights", m.Flights, 1},
		{"coalesced", m.Coalesced, 0},
		{"canceled", m.Canceled, 0},
		{"streams", m.Streams, 1},
		{"batch_items", m.BatchItems, 3},
		{"stream_bytes", m.StreamBytes, 1000},
		{"pool.sessions", int64(m.Pool.Sessions), 1},
		{"pool.hits", m.Pool.Hits, 0},
		{"pool.misses", m.Pool.Misses, 1},
		{"pool.evictions", m.Pool.Evictions, 0},
		{"corpus.hits", m.Corpus.Hits, 0},
		{"corpus.misses", m.Corpus.Misses, 1},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if !m.Corpus.Enabled {
		t.Error("corpus.enabled = false with a corpus configured")
	}

	// The Prometheus exposition renders the same store.
	_, prom := send("GET", "/metrics?format=prometheus", "", true)
	for _, line := range []string{
		`crcserve_checksums_total{kernel="hardware"} 3`,
		`crcserve_checksums_total{kernel="slicing16"} 1`,
		`crcserve_evaluate_stream_errors_total 1`,
		`crcserve_requests_total{endpoint="/v1/checksum",code="401"} 1`,
		`crcserve_checksum_batch_items_sum 3`,
		`crcserve_checksum_stream_bytes_sum 1000`,
		`crcserve_streams 1`,
		`crcserve_corpus_misses 1`,
	} {
		if !strings.Contains(prom, line+"\n") {
			t.Errorf("Prometheus exposition lacks %q", line)
		}
	}

	// One store: the package keeps no expvar copy of these counts.
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		parsed, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range parsed.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "expvar" {
				t.Errorf("%s imports expvar", f)
			}
		}
	}
}
