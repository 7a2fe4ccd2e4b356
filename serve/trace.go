package serve

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"time"

	"koopmancrc"
	"koopmancrc/internal/obs"
)

// The trace wire types are the obs types verbatim: the recorder already
// snapshots immutable JSON-tagged data, so re-marshalling through a
// serve-local mirror would only invite drift.
type (
	// TraceSummary is one flight-recorder entry in /v1/traces listings.
	TraceSummary = obs.TraceSummary
	// TraceData is the full span tree served at /v1/traces/{id}.
	TraceData = obs.TraceData
	// SpanData is one node of a TraceData span tree.
	SpanData = obs.SpanData
)

// TracesResponse is the body of GET /v1/traces.
type TracesResponse struct {
	Count  int            `json:"count"`
	Traces []TraceSummary `json:"traces"`
}

// poolGet wraps pool.get with a "pool.acquire" child span on the
// request's trace, so session creation cost (including a corpus
// warm-start) is attributable inside the span tree.
func (s *Server) poolGet(ctx context.Context, p koopmancrc.Polynomial, maxHD int, limits koopmancrc.Limits) (*session, bool) {
	sp := obs.SpanFromContext(ctx).StartChild("pool.acquire")
	sp.SetAttr("poly", hexStr(p.In(koopmancrc.Koopman)))
	sess, hit := s.pool.get(obs.ContextWithSpan(ctx, sp), p, maxHD, limits)
	sp.SetAttr("hit", strconv.FormatBool(hit))
	sp.End()
	return sess, hit
}

// handleTraces lists retained traces, newest first. Filters: endpoint
// (exact root-span name), min_duration (Go duration string), error
// (true → errored only), limit (default 100).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if s.recorder == nil {
		s.writeError(w, r, http.StatusNotFound, errors.New("tracing disabled"))
		return
	}
	q := r.URL.Query()
	f := obs.TraceFilter{
		Name:  q.Get("endpoint"),
		Limit: 100,
	}
	if v := q.Get("min_duration"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			s.writeError(w, r, http.StatusBadRequest, errors.New("min_duration: "+err.Error()))
			return
		}
		f.MinDuration = d
	}
	if v := q.Get("error"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			s.writeError(w, r, http.StatusBadRequest, errors.New("error: "+err.Error()))
			return
		}
		f.ErrorsOnly = b
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			s.writeError(w, r, http.StatusBadRequest, errors.New("limit must be a positive integer"))
			return
		}
		f.Limit = n
	}
	traces := s.recorder.Summaries(f)
	writeJSON(w, http.StatusOK, &TracesResponse{Count: len(traces), Traces: traces})
}

// handleTrace serves one retained trace's full span tree.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.recorder == nil {
		s.writeError(w, r, http.StatusNotFound, errors.New("tracing disabled"))
		return
	}
	td, ok := s.recorder.Get(r.PathValue("id"))
	if !ok {
		s.writeError(w, r, http.StatusNotFound, errors.New("trace not found (evicted or never retained)"))
		return
	}
	writeJSON(w, http.StatusOK, td)
}
