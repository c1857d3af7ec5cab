package main

import "testing"

func TestSelfTimeSubtractsChildCoverOnce(t *testing.T) {
	spans := []span{
		{Trace: 1, Span: 1, Parent: 0, Name: "request", Start: 0, End: 100},
		{Trace: 1, Span: 2, Parent: 1, Name: "score", Start: 10, End: 60},
		// Two overlapping lookups under score cover [20,45], not 15+20.
		{Trace: 1, Span: 3, Parent: 2, Name: "lookup", Start: 20, End: 35},
		{Trace: 1, Span: 4, Parent: 2, Name: "lookup", Start: 25, End: 45},
		// A child that outlives its parent is clipped to the parent.
		{Trace: 1, Span: 5, Parent: 1, Name: "encode", Start: 90, End: 120},
	}
	self := selfTimes(spans)
	want := map[string]int64{
		"request": 100 - 50 - 10, // score covers 50, encode (clipped) 10
		"score":   50 - 25,
		"lookup":  15 + 20,
		"encode":  30,
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, self[name], w)
		}
	}
}

func TestTracerParentsFollowTheOpenSpan(t *testing.T) {
	tr := newTracer()
	endReq := tr.begin("request")
	endScore := tr.begin("score")
	tr.leaf("lookup")()
	endScore()
	tr.leaf("encode")()
	endReq()
	tr.begin("request")()
	parents := []int64{0, 1, 2, 1, 0}
	traces := []int64{1, 1, 1, 1, 2}
	for i, s := range tr.spans {
		if s.Parent != parents[i] || s.Trace != traces[i] {
			t.Errorf("span %d (%s): parent %d trace %d, want parent %d trace %d", i+1, s.Name, s.Parent, s.Trace, parents[i], traces[i])
		}
		if s.End < s.Start {
			t.Errorf("span %d (%s) never closed", i+1, s.Name)
		}
	}
	var nilTracer *tracer
	nilTracer.begin("x")() // a nil tracer records nothing and does not panic
	nilTracer.leaf("y")()
}
