package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Span is one timed interval of the traced run: a benchmark call into a
// layer, an engine phase reported through koopmancrc.WithSpans, or a
// span pulled from crcserve's /v1/traces. Times are nanoseconds since
// the tracer started. Spans of one request share Req.
type Span struct {
	ID     int64             `json:"id"`
	Parent int64             `json:"parent,omitempty"`
	Req    string            `json:"req,omitempty"`
	Name   string            `json:"name"`
	Start  int64             `json:"start_ns"`
	End    int64             `json:"end_ns"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

func (s Span) dur() int64 { return s.End - s.Start }

// Tracer keeps every span of a traced run in memory; Dump writes them
// out when the run ends. A nil *Tracer records nothing, so untraced runs
// call the same code.
type Tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []Span
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

type spanCtxKey struct{}

type spanRef struct {
	id  int64
	req string
}

// Start opens a span as a child of the span carried by ctx (or a new
// request when ctx has none) and returns the context for its children
// and the function that ends it.
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, func()) {
	if t == nil {
		return ctx, func() {}
	}
	parent, _ := ctx.Value(spanCtxKey{}).(spanRef)
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	req := parent.req
	if req == "" {
		req = "r" + strconv.FormatInt(id, 10)
	}
	start := time.Since(t.t0).Nanoseconds()
	ctx = context.WithValue(ctx, spanCtxKey{}, spanRef{id: id, req: req})
	return ctx, func() {
		end := time.Since(t.t0).Nanoseconds()
		t.add(Span{ID: id, Parent: parent.id, Req: req, Name: name, Start: start, End: end})
	}
}

// Ended records a span that has just finished after running for d, as a
// child of the span carried by ctx: the shape of an engine phase
// reported by WithSpans.
func (t *Tracer) Ended(ctx context.Context, name string, d time.Duration) {
	if t == nil {
		return
	}
	parent, _ := ctx.Value(spanCtxKey{}).(spanRef)
	end := time.Since(t.t0).Nanoseconds()
	t.add(Span{Parent: parent.id, Req: parent.req, Name: name, Start: end - d.Nanoseconds(), End: end})
}

// At converts a wall-clock instant to tracer time.
func (t *Tracer) At(w time.Time) int64 { return w.Sub(t.t0).Nanoseconds() }

// RequestOf returns the request ID and span ID carried by ctx.
func (t *Tracer) RequestOf(ctx context.Context) (string, int64) {
	ref, _ := ctx.Value(spanCtxKey{}).(spanRef)
	return ref.req, ref.id
}

func (t *Tracer) add(s Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.ID == 0 {
		t.next++
		s.ID = t.next
	}
	t.spans = append(t.spans, s)
}

// AddTree records externally timed spans (e.g. pulled from crcserve)
// under parent; IDs are reassigned from the tracer's sequence.
func (t *Tracer) AddTree(parent int64, req string, nodes []Span, parentIdx []int) {
	if t == nil {
		return
	}
	ids := make([]int64, len(nodes))
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, n := range nodes {
		t.next++
		ids[i] = t.next
		n.ID = ids[i]
		n.Req = req
		n.Parent = parent
		if parentIdx[i] >= 0 {
			n.Parent = ids[parentIdx[i]]
		}
		t.spans = append(t.spans, n)
	}
}

// Spans returns a copy of everything recorded so far.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Dump writes the spans as JSON lines.
func (t *Tracer) Dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// nestByContainment re-parents spans that were reported flat under one
// parent (engine phases arrive as siblings) beneath the tightest sibling
// whose interval contains theirs, so a boundary search owns the
// meet-in-the-middle joins it ran.
func nestByContainment(spans []Span) {
	byParent := map[int64][]int{}
	for i, s := range spans {
		byParent[s.Parent] = append(byParent[s.Parent], i)
	}
	for _, idx := range byParent {
		if len(idx) < 2 {
			continue
		}
		for _, c := range idx {
			best := -1
			for _, p := range idx {
				if p == c {
					continue
				}
				cs, ps := spans[c], spans[p]
				if ps.Start <= cs.Start && cs.End <= ps.End && ps.dur() > cs.dur() {
					if best < 0 || spans[p].dur() < spans[best].dur() {
						best = p
					}
				}
			}
			if best >= 0 {
				spans[c].Parent = spans[best].ID
			}
		}
	}
}

// selfTimes returns, per span name, the summed self time in nanoseconds
// and the number of spans: each span's duration minus the part of its
// interval covered by its children. Children may overlap one another
// (parallel work); covered time is their union, clipped to the parent.
func selfTimes(spans []Span) map[string]SelfTime {
	children := map[int64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]SelfTime{}
	for _, s := range spans {
		self := s.dur() - covered(s, children[s.ID])
		st := out[s.Name]
		st.NS += self
		st.Count++
		out[s.Name] = st
	}
	return out
}

// SelfTime aggregates the self time of every span with one name.
type SelfTime struct {
	NS    int64
	Count int
}

// covered returns the length of the union of the children's intervals
// clipped to the parent's.
func covered(parent Span, kids []Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	var curLo, curHi int64 = -1, -1
	for _, v := range iv {
		if curHi < 0 || v[0] > curHi {
			if curHi >= 0 {
				total += curHi - curLo
			}
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	if curHi >= 0 {
		total += curHi - curLo
	}
	return total
}

// traceNode is crcserve's /v1/traces/{id} span tree.
type traceNode struct {
	Name     string      `json:"name"`
	Start    time.Time   `json:"start"`
	DurNS    int64       `json:"duration_ns"`
	Attrs    []traceAttr `json:"attrs"`
	Children []traceNode `json:"children"`
}

type traceAttr struct {
	K string `json:"k"`
	V string `json:"v"`
}

// flattenTrace converts a crcserve span tree into tracer spans (times
// relative to t) with each node's parent index, prefixing names with
// "server." so they are told apart from the benchmark's own spans.
func flattenTrace(t *Tracer, root traceNode) ([]Span, []int) {
	var nodes []Span
	var parents []int
	var walk func(n traceNode, parent int)
	walk = func(n traceNode, parent int) {
		start := t.At(n.Start)
		s := Span{Name: "server." + n.Name, Start: start, End: start + n.DurNS}
		if len(n.Attrs) > 0 {
			s.Attrs = map[string]string{}
			for _, a := range n.Attrs {
				s.Attrs[a.K] = a.V
			}
		}
		nodes = append(nodes, s)
		parents = append(parents, parent)
		me := len(nodes) - 1
		for _, c := range n.Children {
			walk(c, me)
		}
	}
	walk(root, -1)
	return nodes, parents
}

func spanDumpPath(dir, workload string, seed int64) string {
	return fmt.Sprintf("%s/spans-%s-s%d.jsonl", dir, workload, seed)
}
