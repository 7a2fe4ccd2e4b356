package main

import (
	"context"
	"testing"
	"time"
)

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		// Two parallel children overlapping on [20, 40): they cover
		// [10, 60) together, 50 ns, not the 70 ns their durations sum to.
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "child", Start: 20, End: 60},
		// A child running past its parent only covers the part inside.
		{ID: 4, Parent: 1, Name: "late", Start: 90, End: 130},
		{ID: 5, Parent: 3, Name: "grandchild", Start: 25, End: 35},
	}
	self := selfTimes(spans)
	want := map[string]SelfTime{
		"parent":     {NS: 100 - 50 - 10, Count: 1},
		"child":      {NS: 30 + (40 - 10), Count: 2},
		"late":       {NS: 40, Count: 1},
		"grandchild": {NS: 10, Count: 1},
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("%s: self %+v, want %+v", name, self[name], w)
		}
	}
}

func TestNestByContainment(t *testing.T) {
	// Engine phases arrive as flat siblings; the boundary search owns
	// the joins inside its interval, the later scan stays a sibling.
	spans := []Span{
		{ID: 1, Name: "call", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "mitm_store", Start: 5, End: 20},
		{ID: 3, Parent: 1, Name: "mitm_probe", Start: 20, End: 40},
		{ID: 4, Parent: 1, Name: "boundary", Start: 0, End: 50},
		{ID: 5, Parent: 1, Name: "w4_count", Start: 60, End: 90},
	}
	nestByContainment(spans)
	parents := map[string]int64{}
	for _, s := range spans {
		parents[s.Name] = s.Parent
	}
	if parents["mitm_store"] != 4 || parents["mitm_probe"] != 4 || parents["boundary"] != 1 || parents["w4_count"] != 1 {
		t.Fatalf("parents after nesting: %v", parents)
	}
	if got := selfTimes(spans)["boundary"].NS; got != 50-35 {
		t.Errorf("boundary self time %d, want 15", got)
	}
}

func TestTracerRecordsParentsAndRequests(t *testing.T) {
	tr := newTracer()
	ctx, endA := tr.Start(context.Background(), "a")
	cctx, endB := tr.Start(ctx, "b")
	tr.Ended(cctx, "phase", time.Microsecond)
	endB()
	endA()
	_, endC := tr.Start(context.Background(), "c")
	endC()
	byName := map[string]Span{}
	for _, s := range tr.Spans() {
		byName[s.Name] = s
	}
	a, b, p, c := byName["a"], byName["b"], byName["phase"], byName["c"]
	if b.Parent != a.ID || p.Parent != b.ID || a.Parent != 0 {
		t.Errorf("parents: a=%+v b=%+v phase=%+v", a, b, p)
	}
	if a.Req == "" || b.Req != a.Req || p.Req != a.Req || c.Req == a.Req {
		t.Errorf("request IDs: a=%q b=%q phase=%q c=%q", a.Req, b.Req, p.Req, c.Req)
	}
	var nilTracer *Tracer
	ctx2, end := nilTracer.Start(context.Background(), "x")
	end()
	nilTracer.Ended(ctx2, "y", time.Second)
	if nilTracer.Spans() != nil {
		t.Error("a nil tracer recorded spans")
	}
}
