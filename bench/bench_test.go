package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/paper-repro/pdsat-go/internal/cluster"
	"github.com/paper-repro/pdsat-go/internal/decomp"
	runner "github.com/paper-repro/pdsat-go/internal/pdsat"
	"github.com/paper-repro/pdsat-go/internal/solver"
)

// batchAndF runs one batch of sampled subproblems straight through the
// transport and one predictive-function evaluation through a runner on it,
// and returns the results in index order (without the wall-clock SolveTime)
// and F.
func batchAndF(t *testing.T, w workload, transport cluster.Transport) ([]cluster.TaskResult, float64) {
	t.Helper()
	inst, err := w.newInstance(7)
	if err != nil {
		t.Fatal(err)
	}
	space := decomp.NewSpace(inst.UnknownStartVars())
	p, err := space.PointFromVars(lastVars(space.Vars(), 3))
	if err != nil {
		t.Fatal(err)
	}
	fam := decomp.FamilyOf(inst.CNF, p)
	tasks := make([]cluster.Task, fam.SizeUint())
	for i := range tasks {
		tasks[i] = cluster.Task{Index: i, Assumptions: fam.AssumptionsFor(uint64(i))}
	}
	results, err := transport.Run(t.Context(), tasks, cluster.BatchOptions{CostMetric: solver.CostPropagations})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(results, func(a, b int) bool { return results[a].Index < results[b].Index })
	for i := range results {
		results[i].Stats.SolveTime = 0
	}
	r := runner.NewRunner(inst.CNF, w.runnerConfig(w.seeds(7, 0), transport))
	pe, err := r.EvaluatePoint(t.Context(), p)
	if err != nil {
		t.Fatal(err)
	}
	return results, pe.Estimate.Value
}

// The tracing transport and the byte-counting forwarder only watch: a
// wrapped run returns the same task results and the same F, bit for bit,
// as an unwrapped one, on both backends.
func TestTracingIsTransparent(t *testing.T) {
	for _, name := range []string{"a51-solve", "bivium-estimate-tcp"} {
		w := tinyWorkload(t, name)
		t.Run(name, func(t *testing.T) {
			inst, err := w.newInstance(7)
			if err != nil {
				t.Fatal(err)
			}
			var plain, wrapped cluster.Transport
			var fwd *forwarder
			if w.tcp {
				lb, err := startLoopback(t.Context(), inst.CNF, nil)
				if err != nil {
					t.Fatal(err)
				}
				defer lb.close()
				fwd = &forwarder{}
				viaForwarder, err := startLoopback(t.Context(), inst.CNF, fwd)
				if err != nil {
					t.Fatal(err)
				}
				defer fwd.close()
				defer viaForwarder.close()
				plain, wrapped = lb.leader, viaForwarder.leader
			} else {
				plain = cluster.NewInproc(inst.CNF, workers, solver.DefaultOptions())
				wrapped = cluster.NewInproc(inst.CNF, workers, solver.DefaultOptions())
			}
			tt := &tracedTransport{inner: wrapped, tr: newTracer()}

			wantResults, wantF := batchAndF(t, w, plain)
			gotResults, gotF := batchAndF(t, w, tt)
			if !reflect.DeepEqual(gotResults, wantResults) {
				t.Errorf("task results differ through the tracing transport:\n got %+v\nwant %+v", gotResults, wantResults)
			}
			if gotF != wantF {
				t.Errorf("F = %v through the tracing transport, %v without", gotF, wantF)
			}
			if got := len(tt.batches); got != 2 {
				t.Errorf("tracing transport recorded %d batches, want 2", got)
			}
			if spans := tt.tr.snapshot(); len(spans) != 2 || spans[0].Layer != layerCluster {
				t.Errorf("tracing transport recorded spans %+v, want two cluster spans", spans)
			}
			if fwd != nil && (fwd.toWorkers.Load() == 0 || fwd.toLeader.Load() == 0) {
				t.Errorf("forwarder counted %d bytes to the workers and %d to the leader, want both above 0",
					fwd.toWorkers.Load(), fwd.toLeader.Load())
			}
		})
	}
}

// A batch that is aborted half-way reports its abort latency and aborted
// tasks, and still returns one result per task.
func TestTracingTransportRecordsAborts(t *testing.T) {
	w := tinyWorkload(t, "a51-solve")
	inst, err := w.newInstance(7)
	if err != nil {
		t.Fatal(err)
	}
	tt := &tracedTransport{inner: cluster.NewInproc(inst.CNF, workers, solver.DefaultOptions()), tr: newTracer()}
	fam := decomp.NewFamily(inst.CNF, lastVars(inst.UnknownStartVars(), 6))
	tasks := make([]cluster.Task, fam.SizeUint())
	for i := range tasks {
		tasks[i] = cluster.Task{Index: i, Assumptions: fam.AssumptionsFor(uint64(i))}
	}
	abort := make(chan struct{})
	seen := 0
	results, err := tt.RunAbortable(t.Context(), tasks, cluster.BatchOptions{}, func(cluster.TaskResult) {
		if seen++; seen == 1 {
			close(abort)
		}
	}, abort)
	if err != nil || len(results) != len(tasks) {
		t.Fatalf("aborted batch returned %d results and error %v, want %d and nil", len(results), err, len(tasks))
	}
	rec := tt.batches[0]
	if rec.aborted == 0 || rec.abortLatency <= 0 || rec.firstResult <= 0 {
		t.Errorf("batch record %+v, want aborted tasks, an abort latency and a first-result time", rec)
	}
	tt.reset()
	if len(tt.batches) != 0 || len(tt.replay) != 0 {
		t.Errorf("reset left %d batches and %d replay tasks", len(tt.batches), len(tt.replay))
	}
}

// Every workload at the tiny scale passes every check, in both phases, and
// reports every metric.
func TestTinyWorkloads(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads(tinySizes) {
		t.Run(w.name, func(t *testing.T) {
			res, err := benchWorkload(t.Context(), w, options{
				seed: 7, reps: 2, endToEnd: true, layers: true, traceDir: dir,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.checks.failed != 0 || res.checks.attempted == 0 {
				t.Errorf("%d of %d operations failed: %v", res.checks.failed, res.checks.attempted, res.checks.failures)
			}
			for _, mt := range endToEnd {
				if v, ok := res.endToEnd[mt.name]; !ok || v <= 0 {
					t.Errorf("end-to-end metric %s = %v (present %v), want above 0", mt.name, v, ok)
				}
			}
			for _, mt := range perLayer {
				if _, ok := res.layers[mt.name]; !ok {
					t.Errorf("per-layer metric %s is missing", mt.name)
				}
			}
			for name := range res.layers {
				if !hasMetric(perLayer, name) {
					t.Errorf("per-layer metric %s is not in the metric table", name)
				}
			}
			if res.layers["solver.solves"] == 0 || res.layers["cluster.run_s"] == 0 || res.layers["trace.spans"] == 0 {
				t.Errorf("traced run recorded no work: %v", res.layers)
			}
			if w.tcp != (res.layers["cluster.wire_bytes_out_per_task"] > 0) {
				t.Errorf("wire bytes per task = %v on a workload with tcp=%v", res.layers["cluster.wire_bytes_out_per_task"], w.tcp)
			}
			data, err := os.ReadFile(filepath.Join(dir, "trace-"+w.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(data, &tf); err != nil || tf.Workload != w.name || len(tf.Spans) == 0 {
				t.Errorf("trace file: error %v, workload %q, %d spans", err, tf.Workload, len(tf.Spans))
			}
		})
	}
}

// tinyWorkload returns the named workload at the tiny scale.
func tinyWorkload(t *testing.T, name string) workload {
	t.Helper()
	for _, w := range workloads(tinySizes) {
		if w.name == name {
			return w
		}
	}
	t.Fatalf("no workload %q", name)
	return workload{}
}

func hasMetric(table []metric, name string) bool {
	for _, mt := range table {
		if mt.name == name {
			return true
		}
	}
	return false
}

// A failed check is a failed operation.
func TestChecksCountFailures(t *testing.T) {
	var c checks
	c.ok(true, "fine")
	c.ok(false, "ledger off by %d", 3)
	if c.attempted != 2 || c.failed != 1 || len(c.failures) != 1 || c.failures[0] != "ledger off by 3" {
		t.Errorf("checks = %+v", c)
	}
	var a, b outcome
	a.addValue(1.5)
	b.addValue(1.5)
	if !a.equal(b) {
		t.Errorf("equal outcomes compare unequal")
	}
	b.addValue(0)
	if a.equal(b) {
		t.Errorf("outcomes of different length compare equal")
	}
}

// Case 0 uses the run's seed itself; a pinned workload keeps its secrets
// whatever the seed.
func TestSeeds(t *testing.T) {
	ws := workloads(benchSizes)
	if got := ws[0].seeds(7, 0); got != (seeds{instance: 7, runner: 8, search: 9}) {
		t.Errorf("seeds(7, 0) = %+v", got)
	}
	if got := ws[0].seeds(7, 2); got != (seeds{instance: 2007, runner: 2008, search: 2009}) {
		t.Errorf("seeds(7, 2) = %+v", got)
	}
	for _, w := range ws {
		if w.pinSecret != 0 && w.seeds(7, 1).instance != w.seeds(11, 1).instance {
			t.Errorf("%s: pinned secret moves with the seed", w.name)
		}
	}
}

// lastLine returns the last non-empty line of the output.
func lastLine(out string) string {
	lines := strings.Split(strings.TrimSpace(out), "\n")
	return lines[len(lines)-1]
}

// resultLine is the object the benchmark contract prescribes.
type resultLine struct {
	Correct   *bool `json:"correct"`
	Attempted *int  `json:"attempted"`
	Failed    *int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// With -trace 0 the last line carries exactly the end-to-end metrics, with
// -trace 1 exactly the per-layer ones, under the flags the driver passes.
func TestRunPrintsTheContractsResultLine(t *testing.T) {
	for trace, table := range map[string][]metric{"0": endToEnd, "1": perLayer} {
		onLine := 0
		for _, mt := range table {
			if !mt.partial {
				onLine++
			}
		}
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "bivium-hard", "--seed", "11", "--seconds", "0.1", "--trace", trace}
		if code := run(t.Context(), args, tinySizes, t.TempDir(), &stdout, &stderr); code != 0 {
			t.Fatalf("-trace %s: exit code %d, stderr %s", trace, code, stderr.String())
		}
		var line resultLine
		dec := json.NewDecoder(strings.NewReader(lastLine(stdout.String())))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("-trace %s: last line is not the result object: %v\n%s", trace, err, stdout.String())
		}
		if line.Correct == nil || !*line.Correct || line.Attempted == nil || *line.Attempted < 1 || line.Failed == nil || *line.Failed != 0 {
			t.Errorf("-trace %s: result line %s", trace, lastLine(stdout.String()))
		}
		if len(line.Metrics) != onLine {
			t.Errorf("-trace %s: %d metrics on the result line, want %d", trace, len(line.Metrics), onLine)
		}
		for _, mt := range table {
			got, ok := line.Metrics[mt.name]
			if ok == mt.partial || (ok && (got.Value == nil || got.Unit != mt.unit)) {
				t.Errorf("-trace %s: metric %s = %+v (present %v), want unit %s", trace, mt.name, got, ok, mt.unit)
			}
			if !strings.Contains(stdout.String(), "  "+mt.name+" ") {
				t.Errorf("-trace %s: metric %s is not printed by name", trace, mt.name)
			}
		}
	}
}

func TestRunComparesTwoSets(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-workload", "bivium-hard,a51-solve", "-reps", "1", "-trace=false", "-aa"}
	if code := run(t.Context(), args, tinySizes, t.TempDir(), &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr %s", code, stderr.String())
	}
	out := stdout.String()
	if strings.Count(out, "== bivium-hard") != 2 || strings.Count(out, "== a51-solve") != 2 {
		t.Errorf("-aa did not run two sets:\n%s", out)
	}
	for _, mt := range endToEnd {
		if !strings.Contains(out, "bivium-hard          "+mt.name) {
			t.Errorf("-aa comparison lacks bivium-hard %s:\n%s", mt.name, out)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "no-such-workload"},
		{"-trace", "2"},
		{"-no-such-flag"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, tinySizes, t.TempDir(), &stdout, &stderr); code != 2 || stderr.Len() == 0 {
			t.Errorf("run(%v) = %d with stderr %q, want 2 and a message", args, code, stderr.String())
		}
	}
}

// BENCHMARK.json at the root of the repository lists the workloads and
// metrics of this package; the two must not drift apart.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"go", "run", "-C", "bench", "."}) || !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1 to 60", doc.RunSeconds)
	}
	ws := workloads(benchSizes)
	if len(doc.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(doc.Workloads), len(ws))
	}
	for i, w := range ws {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the code %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	compare := func(kind string, got []jsonMetric, table []metric, bounded bool) {
		var want []metric
		for _, mt := range table {
			if !mt.partial {
				want = append(want, mt)
			}
		}
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the code", kind, len(got), len(want))
			return
		}
		for i, mt := range want {
			g := got[i]
			if g.Name != mt.name || g.Unit != mt.unit || g.Better != mt.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the code %+v", kind, i, g, mt)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != mt.bound || *g.Bound <= 0 || *g.Bound > 0.25)) {
				t.Errorf("%s metric %s: bound %v in BENCHMARK.json, %v in the code", kind, mt.name, g.Bound, mt.bound)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd, true)
	compare("per_layer", doc.PerLayer, perLayer, false)
	if len(doc.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(doc.PerLayer))
	}
}
