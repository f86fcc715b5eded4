package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	cases := []struct {
		values []float64
		p      float64
		want   float64
	}{
		{nil, 50, 0},
		{[]float64{4}, 50, 4},
		{[]float64{4}, 99, 4},
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{4, 1, 3, 2}, 50, 2.5},
		{[]float64{10, 20, 30, 40, 50}, 0, 10},
		{[]float64{10, 20, 30, 40, 50}, 100, 50},
		{[]float64{10, 20, 30, 40, 50}, 95, 48},
		{[]float64{10, 20, 30, 40, 50}, 25, 20},
	}
	for _, c := range cases {
		if got := percentile(c.values, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.values, c.p, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}

// A case's value is its best repetition, a run's the median over its cases.
func TestMedianOfBest(t *testing.T) {
	wall := func(r rep) float64 { return r.wallS }
	byCase := [][]rep{
		{{wallS: 3, cpuS: 1}, {wallS: 2, cpuS: 5}, {wallS: 4, cpuS: 2}},
		{{wallS: 7}, {wallS: 9}},
		{{wallS: 1}},
	}
	if got := best(byCase[0], wall); got.wallS != 2 || got.cpuS != 5 {
		t.Errorf("best by wall clock = %+v, want the repetition of 2 s", got)
	}
	if got := medianOfBest(byCase, wall); got != 2 {
		t.Errorf("medianOfBest = %v, want 2 (the median of 2, 7 and 1)", got)
	}
	if got := medianOfBest(byCase[:2], wall); got != 4.5 {
		t.Errorf("medianOfBest of two cases = %v, want 4.5", got)
	}
}

func TestRatio(t *testing.T) {
	if got := ratio(6, 3); got != 2 {
		t.Errorf("ratio(6, 3) = %v", got)
	}
	if got := ratio(6, 0); got != 0 {
		t.Errorf("ratio(6, 0) = %v, want 0 for a layer that did no work", got)
	}
}

// ms builds a span from millisecond offsets.
func ms(id, parent int, layer, op string, start, end int) span {
	return span{ID: id, Parent: parent, Job: "job-1", Layer: layer, Op: op,
		Start: time.Duration(start) * time.Millisecond, End: time.Duration(end) * time.Millisecond}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		ms(0, -1, layerJob, "job-1", 0, 100),
		ms(1, 0, layerOptimize, "TabuSearch", 10, 90),
		ms(2, 1, layerEval, "EvaluateF", 20, 40),
		ms(3, 1, layerEval, "EvaluateF", 50, 80),
		ms(4, 3, layerPdsat, "EvaluatePointBudgeted", 55, 75),
		ms(5, 4, layerCluster, "RunAbortable", 60, 70),
	}
	self := selfTimes(spans)
	want := []int{20, 30, 20, 10, 10, 10}
	var sum time.Duration
	for i, w := range want {
		if self[i] != time.Duration(w)*time.Millisecond {
			t.Errorf("self time of span %d = %v, want %dms", i, self[i], w)
		}
		sum += self[i]
	}
	if sum != spans[0].duration() {
		t.Errorf("self times sum to %v, want the job's wall clock %v", sum, spans[0].duration())
	}
	if got := layerSelf(spans, self, layerEval, ""); got != 30*time.Millisecond {
		t.Errorf("eval self time = %v, want 30ms", got)
	}
	if got := layerSelf(spans, self, layerPdsat, "Solve"); got != 0 {
		t.Errorf("pdsat Solve self time = %v, want 0", got)
	}
	if got := layerDurations(spans, layerEval); len(got) != 2 || got[0] != 20 || got[1] != 30 {
		t.Errorf("eval durations = %v, want [20 30]", got)
	}
}

// Concurrent evaluations overlap; the parent's self time takes out the
// interval they cover once, and never what lies outside the parent.
func TestSelfTimesOverlappingChildren(t *testing.T) {
	spans := []span{
		ms(7, -1, layerJob, "job-1", 0, 100),
		ms(8, 7, layerEval, "EvaluateSlotF", 10, 60),
		ms(9, 7, layerEval, "EvaluateSlotF", 40, 80),
		ms(10, 7, layerEval, "EvaluateSlotF", 50, 55),
		ms(11, 7, layerEval, "EvaluateSlotF", 90, 120),
	}
	self := selfTimes(spans)
	// Covered: [10,80] and [90,100] of [0,100].
	if self[0] != 20*time.Millisecond {
		t.Errorf("self time under overlapping children = %v, want 20ms", self[0])
	}
}

func TestTracerNestsSpansThroughContext(t *testing.T) {
	tr := newTracer()
	jctx, job := tr.begin(t.Context(), layerJob, "job-7")
	ectx, ev := tr.begin(jctx, layerEval, "EvaluateF")
	_, cl := tr.begin(ectx, layerCluster, "Run")
	tr.end(cl)
	tr.end(ev)
	_, second := tr.begin(jctx, layerEval, "EvaluateF")
	tr.end(second)
	tr.end(job)

	spans := tr.snapshot()
	parents := []int{-1, job, ev, job}
	for i, s := range spans {
		if s.Parent != parents[i] || s.Job != "job-7" || s.End < s.Start {
			t.Errorf("span %d = %+v, want parent %d in job-7", i, s, parents[i])
		}
	}
}
