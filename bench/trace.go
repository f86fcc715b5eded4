package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// The layers of the traced run, named after the packages whose exported
// entry points the spans wrap.  layerJob is the benchmark's own job driver,
// which stands where pdsat.Session's job goroutine stands in an untraced
// run.
const (
	layerJob      = "job"
	layerOptimize = "optimize"
	layerEval     = "eval"
	layerPdsat    = "pdsat"
	layerCluster  = "cluster"
)

// span is one call across a layer boundary.  Start and End are offsets from
// the trace's origin; Parent is the span that made the call (-1 for a job).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Job    string        `json:"job"`
	Layer  string        `json:"layer"`
	Op     string        `json:"op"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) duration() time.Duration { return s.End - s.Start }

// tracer keeps the spans of one traced run in memory; they are written out
// when the run ends.  The open span travels down the layers in the context,
// which every layer passes on unchanged.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

type spanKey struct{}

// begin opens a span under the span carried by ctx (a job span when there is
// none, with op as the job's name) and returns the context to pass down.
func (t *tracer) begin(ctx context.Context, layer, op string) (context.Context, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{ID: len(t.spans), Parent: -1, Job: op, Layer: layer, Op: op, Start: time.Since(t.origin)}
	if parent, ok := ctx.Value(spanKey{}).(int); ok {
		s.Parent = parent
		s.Job = t.spans[parent].Job
	}
	t.spans = append(t.spans, s)
	return context.WithValue(ctx, spanKey{}, s.ID), s.ID
}

// end closes a span.
func (t *tracer) end(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = time.Since(t.origin)
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns every span's self time: its duration minus the part of
// that interval its child spans cover.  Children are clipped to the parent
// and overlapping children (concurrent evaluations) are counted once, so
// the self times of a job's spans sum to the job span's duration whenever
// each layer waits for its calls to return.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := time.Duration(0), s.Start
		for _, k := range kids {
			start, end := max(k.Start, reach), min(k.End, s.End)
			if end > start {
				covered += end - start
				reach = end
			}
		}
		self[i] = s.duration() - covered
	}
	return self
}

// layerSelf sums self times per layer, optionally restricted to one op.
func layerSelf(spans []span, self []time.Duration, layer, op string) time.Duration {
	var total time.Duration
	for i, s := range spans {
		if s.Layer == layer && (op == "" || s.Op == op) {
			total += self[i]
		}
	}
	return total
}

// layerDurations returns the durations of a layer's spans in milliseconds.
func layerDurations(spans []span, layer string) []float64 {
	var ds []float64
	for _, s := range spans {
		if s.Layer == layer {
			ds = append(ds, micros(s.duration())/1e3)
		}
	}
	return ds
}

// traceFile is the on-disk form of a traced run.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

// writeTrace writes the spans to dir/trace-<workload>.json.
func writeTrace(dir, workload string, seed int64, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
