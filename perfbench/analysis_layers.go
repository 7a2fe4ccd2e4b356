package main

import (
	"context"
	"fmt"
)

// analysisServerLayers reads the analysis workload's per-layer figures
// from what crcserve exposes: the JSON /metrics document, the Prometheus
// histograms and the span trees pulled from /v1/traces. Phase one gives
// the pool, singleflight, engine and corpus-write figures; the restart
// gives the corpus reads.
func analysisServerLayers(ctx context.Context, e *env, srv *server, out map[string]float64, restart bool) error {
	var doc metricsDoc
	if err := srv.getJSON(ctx, "/metrics", &doc); err != nil {
		return err
	}
	p, err := srv.prom(ctx)
	if err != nil {
		return err
	}
	if restart {
		out["corpus.hits"] = float64(doc.Corpus.Hits)
		out["corpus.misses"] = float64(doc.Corpus.Misses)
		out["corpus.load_ms"] = meanOf(p, "crcserve_corpus_load_seconds", "") * 1e3
		return nil
	}
	out["serve.pool.hits"] = float64(doc.Pool.Hits)
	out["serve.pool.misses"] = float64(doc.Pool.Misses)
	out["serve.pool.evictions"] = float64(doc.Pool.Evictions)
	out["serve.pool.hit_frac"] = float64(doc.Pool.Hits) / float64(doc.Pool.Hits+doc.Pool.Misses)
	out["serve.flights"] = float64(doc.Flights)
	out["serve.coalesced"] = float64(doc.Coalesced)
	out["serve.canceled"] = float64(doc.Canceled)
	out["hamming.probes"] = float64(doc.Pool.Probes)
	out["corpus.appends"] = float64(doc.Corpus.Appends)
	out["corpus.compactions"] = float64(doc.Corpus.Compactions)
	out["corpus.bytes"] = float64(doc.Corpus.Bytes)
	for _, ep := range []string{"evaluate", "hd", "maxlen", "select"} {
		out["serve.server_ms."+ep] = meanOf(p, "crcserve_request_duration_seconds", fmt.Sprintf("{endpoint=%q}", "/v1/"+ep)) * 1e3
	}

	spans := e.tracer.Spans()
	nestByContainment(spans)
	self := selfTimes(spans)
	perSpan := func(name string) float64 {
		st := self[name]
		if st.Count == 0 {
			return 0
		}
		return float64(st.NS) / float64(st.Count)
	}
	out["serve.pool_acquire_us"] = perSpan("server.pool.acquire") / 1e3
	out["serve.flight_wait_ms"] = perSpan("server.flight") / 1e6
	for _, ph := range enginePhases {
		out["hamming."+ph+"_s"] = float64(self["server.engine."+ph].NS) / 1e9
	}
	return nil
}
