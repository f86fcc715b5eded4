package optimize

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/decomp"
	"github.com/paper-repro/pdsat-go/internal/eval"
)

// safeObjective wraps countingObjective with an optional latency and a
// record of every evaluation: the point, the incumbent it ran against, and
// how many evaluations of the objective were in flight with it.
type safeObjective struct {
	mu    sync.Mutex
	inner *countingObjective
	delay time.Duration

	inFlight, maxInFlight int
	evaluated             []decomp.Point
	incumbents            []float64
}

func (o *safeObjective) EvaluateF(ctx context.Context, p decomp.Point, incumbent float64) (*eval.Evaluation, error) {
	o.mu.Lock()
	o.inFlight++
	o.maxInFlight = max(o.maxInFlight, o.inFlight)
	o.evaluated = append(o.evaluated, p)
	o.incumbents = append(o.incumbents, incumbent)
	o.mu.Unlock()
	defer func() {
		o.mu.Lock()
		o.inFlight--
		o.mu.Unlock()
	}()
	if o.delay > 0 {
		select {
		case <-time.After(o.delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.inner.EvaluateF(ctx, p, incumbent)
}

func (o *safeObjective) VarActivity(v cnf.Var) float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.inner.VarActivity(v)
}

// tracesEqual compares two search traces field by field.
func tracesEqual(t *testing.T, got, want []Visit) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("trace length %d, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Index != w.Index || g.Point.Key() != w.Point.Key() || g.Value != w.Value ||
			g.Accepted != w.Accepted || g.Improved != w.Improved || g.Pruned != w.Pruned {
			t.Fatalf("trace[%d] = %+v, want %+v", i, g, w)
		}
	}
}

// resultsEqual compares two full search results including the trace.
func resultsEqual(t *testing.T, got, want *Result) {
	t.Helper()
	if got.BestValue != want.BestValue {
		t.Fatalf("best value %v, want %v", got.BestValue, want.BestValue)
	}
	if got.BestPoint.Key() != want.BestPoint.Key() {
		t.Fatalf("best point %v, want %v", got.BestPoint.SortedVars(), want.BestPoint.SortedVars())
	}
	if got.Evaluations != want.Evaluations {
		t.Fatalf("evaluations %d, want %d", got.Evaluations, want.Evaluations)
	}
	if got.Stop != want.Stop {
		t.Fatalf("stop reason %q, want %q", got.Stop, want.Stop)
	}
	tracesEqual(t, got.Trace, want.Trace)
}

// recordedTraceFile holds the traces the sequential SA/tabu loops produced
// on the synthetic objective at the commit before their deletion.  Regenerate
// (only ever to add a case) with:
//
//	PDSAT_UPDATE_GOLDENS=1 go test -run 'ScheduledWidthOneBitIdentical' ./internal/optimize
const recordedTraceFile = "testdata/search_traces.json"

// recordedSearch is a Result in the recorded form; a trace entry is
// "index point value accepted improved pruned".
type recordedSearch struct {
	BestPoint   string     `json:"best_point"`
	BestValue   float64    `json:"best_value"`
	Evaluations int        `json:"evaluations"`
	Stop        StopReason `json:"stop"`
	Trace       []string   `json:"trace"`
}

// traceLine is a visit in the recorded form.
func traceLine(v Visit) string {
	return fmt.Sprintf("%d %s %v %t %t %t", v.Index, v.Point.Key(), v.Value, v.Accepted, v.Improved, v.Pruned)
}

// checkRecorded compares a result with the named recording (or records it
// under PDSAT_UPDATE_GOLDENS).
func checkRecorded(t *testing.T, name string, got *Result) {
	t.Helper()
	all := map[string]recordedSearch{}
	if buf, err := os.ReadFile(recordedTraceFile); err == nil {
		if err := json.Unmarshal(buf, &all); err != nil {
			t.Fatal(err)
		}
	}
	run := recordedSearch{
		BestPoint:   got.BestPoint.Key(),
		BestValue:   got.BestValue,
		Evaluations: got.Evaluations,
		Stop:        got.Stop,
	}
	for _, v := range got.Trace {
		run.Trace = append(run.Trace, traceLine(v))
	}
	if os.Getenv("PDSAT_UPDATE_GOLDENS") != "" {
		all[name] = run
		buf, err := json.MarshalIndent(all, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(recordedTraceFile, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	rec, ok := all[name]
	if !ok {
		t.Fatalf("no recording %q in %s", name, recordedTraceFile)
	}
	if !reflect.DeepEqual(run, rec) {
		for i := range min(len(run.Trace), len(rec.Trace)) {
			if run.Trace[i] != rec.Trace[i] {
				t.Fatalf("trace[%d] = %q, recorded %q", i, run.Trace[i], rec.Trace[i])
			}
		}
		t.Fatalf("best %s = %v, %d evaluations, %d visits, %q; recorded %s = %v, %d evaluations, %d visits, %q",
			run.BestPoint, run.BestValue, run.Evaluations, len(run.Trace), run.Stop,
			rec.BestPoint, rec.BestValue, rec.Evaluations, len(rec.Trace), rec.Stop)
	}
}

// TestTabuScheduledWidthOneBitIdentical pins the tabu loop to the trace the
// deleted sequential loop produced: the pre-drawn visit order must consume
// the RNG exactly as its one-pick-at-a-time draws did, and width 1 must keep
// its per-candidate budget checks — same visits, same stop.  Width 0 is
// width 1.
func TestTabuScheduledWidthOneBitIdentical(t *testing.T) {
	s := makeSpace(7)
	for _, width := range []int{0, 1} {
		res, err := TabuSearch(context.Background(), newCountingObjective([]cnf.Var{2, 5}), s.FullPoint(), Options{
			Seed:               11,
			MaxEvaluations:     400,
			MaxConcurrentEvals: width,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkRecorded(t, "tabu", res)
	}
}

// TestSAScheduledWidthOneBitIdentical is the same anchor for the simulated
// annealing: it evaluates one drawn candidate at a time, so the
// pick/evaluate/accept/cool interleaving — including the acceptance RNG
// draws — matches the recorded sequential walk exactly.
func TestSAScheduledWidthOneBitIdentical(t *testing.T) {
	s := makeSpace(7)
	for _, width := range []int{0, 1} {
		res, err := SimulatedAnnealing(context.Background(), newCountingObjective([]cnf.Var{1, 4, 6}), s.FullPoint(), Options{
			Seed:               13,
			MaxEvaluations:     600,
			InitialTemperature: 0.5,
			CoolingFactor:      0.97,
			MaxConcurrentEvals: width,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkRecorded(t, "sa", res)
	}
}

// TestSearchEvaluatesOneCandidateAtATime: both searches evaluate one
// candidate at a time, and each evaluation runs against the best value the
// search has certified before it (+Inf for the start point), so a fixed-seed
// trace does not depend on timing.
func TestSearchEvaluatesOneCandidateAtATime(t *testing.T) {
	s := makeSpace(6)
	for name, search := range map[string]func(context.Context, Objective, decomp.Point, Options) (*Result, error){
		"tabu": TabuSearch,
		"sa":   SimulatedAnnealing,
	} {
		obj := &safeObjective{inner: newCountingObjective([]cnf.Var{2, 5})}
		res, err := search(context.Background(), obj, s.FullPoint(), Options{Seed: 9, MaxEvaluations: 60, InitialTemperature: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if obj.maxInFlight != 1 {
			t.Fatalf("%s: %d evaluations in flight at once, want 1", name, obj.maxInFlight)
		}
		if len(obj.evaluated) != res.Evaluations {
			t.Fatalf("%s: objective saw %d evaluations, the result counts %d", name, len(obj.evaluated), res.Evaluations)
		}
		// Walk the trace; a visit of the next evaluated point is that
		// evaluation (the others are value-cache hits of earlier points).
		best, next := math.Inf(1), 0
		for _, v := range res.Trace {
			if next < len(obj.evaluated) && v.Point.Equal(obj.evaluated[next]) {
				if obj.incumbents[next] != best {
					t.Fatalf("%s: evaluation %d ran against incumbent %v, the best before it was %v", name, next, obj.incumbents[next], best)
				}
				next++
			}
			if v.Improved {
				best = v.Value
			}
		}
		if next != len(obj.evaluated) {
			t.Fatalf("%s: %d of %d evaluations appear in the trace", name, next, len(obj.evaluated))
		}
	}
}

// TestScheduledNeighborhoodObserver: every scheduler pass reports one
// Neighborhood whose counters are internally consistent and account for
// the whole trace.
func TestScheduledNeighborhoodObserver(t *testing.T) {
	s := makeSpace(6)
	obj := &safeObjective{inner: newCountingObjective([]cnf.Var{2, 4})}
	var passes []Neighborhood
	res, err := TabuSearch(context.Background(), obj, s.FullPoint(), Options{
		Seed:                 9,
		NeighborhoodObserver: func(nb Neighborhood) { passes = append(passes, nb) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(passes) == 0 {
		t.Fatal("no neighbourhood passes observed")
	}
	evaluated := 0
	for i, nb := range passes {
		if nb.Candidates <= 0 || nb.Evaluated < 0 || nb.Pruned < 0 || nb.Cancelled < 0 {
			t.Fatalf("pass %d has inconsistent counters: %+v", i, nb)
		}
		if nb.Evaluated+nb.Cancelled > nb.Candidates {
			t.Fatalf("pass %d: evaluated %d + cancelled %d exceed candidates %d",
				i, nb.Evaluated, nb.Cancelled, nb.Candidates)
		}
		if nb.Radius <= 0 {
			t.Fatalf("pass %d radius %d", i, nb.Radius)
		}
		evaluated += nb.Evaluated
	}
	// Every trace entry after the start evaluation belongs to some pass.
	if want := len(res.Trace) - 1; evaluated != want {
		t.Fatalf("passes account for %d evaluations, trace has %d", evaluated, want)
	}
	if last := passes[len(passes)-1]; last.BestValue != res.BestValue {
		t.Fatalf("final pass best %v, result best %v", last.BestValue, res.BestValue)
	}
}

// TestScheduledSearchCancellation: cancelling mid-neighbourhood ends both
// searches gracefully with StopContext.
func TestScheduledSearchCancellation(t *testing.T) {
	s := makeSpace(10)
	for _, method := range []string{"tabu", "sa"} {
		obj := &safeObjective{inner: newCountingObjective([]cnf.Var{5}), delay: time.Millisecond}
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(5 * time.Millisecond)
			cancel()
		}()
		opts := Options{Seed: 17, InitialTemperature: 0.5}
		var res *Result
		var err error
		if method == "tabu" {
			res, err = TabuSearch(ctx, obj, s.FullPoint(), opts)
		} else {
			res, err = SimulatedAnnealing(ctx, obj, s.FullPoint(), opts)
		}
		cancel()
		if err != nil {
			t.Fatalf("%s: cancelled search returned error %v, want graceful result", method, err)
		}
		if res.Stop != StopContext {
			t.Fatalf("%s: stop reason %q, want %q", method, res.Stop, StopContext)
		}
	}
}

// TestValidateRejectsNegativeConcurrency: an evaluation concurrency other
// than 0 or 1 is refused — negative, or wide since wider passes were
// removed — with eval.Policy's message, and both search entry points refuse
// it before evaluating anything.
func TestValidateRejectsNegativeConcurrency(t *testing.T) {
	for _, width := range []int{0, 1} {
		if err := (Options{MaxConcurrentEvals: width}).Validate(); err != nil {
			t.Fatalf("width %d rejected: %v", width, err)
		}
	}
	for _, width := range []int{-1, 2, 8} {
		err := (Options{MaxConcurrentEvals: width}).Validate()
		want := eval.Policy{MaxConcurrentEvals: width}.Validate()
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Fatalf("width %d: Validate = %v, want eval.Policy's %v", width, err, want)
		}
		obj := newCountingObjective([]cnf.Var{1})
		if _, err := TabuSearch(context.Background(), obj, makeSpace(3).FullPoint(), Options{MaxConcurrentEvals: width}); err == nil || obj.evaluations != 0 {
			t.Fatalf("width %d: TabuSearch returned %v after %d evaluations", width, err, obj.evaluations)
		}
	}
}

// pruningObjective prunes deterministically: a point valued above the
// incumbent is returned Pruned, its lower bound halfway between the two.
type pruningObjective struct{ *countingObjective }

func (o pruningObjective) EvaluateF(ctx context.Context, p decomp.Point, incumbent float64) (*eval.Evaluation, error) {
	ev, err := o.countingObjective.EvaluateF(ctx, p, incumbent)
	if err != nil || ev.Value <= incumbent {
		return ev, err
	}
	lb := (ev.Value + incumbent) / 2
	return &eval.Evaluation{Value: lb, LowerBound: lb, Pruned: true, Incumbent: incumbent}, nil
}

// pinnedPass is a Neighborhood with its centre as a key.
type pinnedPass struct {
	center                                           string
	radius, candidates, evaluated, pruned, cancelled int
	improved                                         bool
	best                                             float64
}

// TestNeighborhoodPassesPinned pins every neighbourhood pass and the trace
// of a fixed-seed tabu search and annealing on a pruning objective, each
// stopped by its evaluation budget part way through: which candidates count
// as evaluated, pruned and cancelled, and which visits are recorded.
func TestNeighborhoodPassesPinned(t *testing.T) {
	for _, tc := range []struct {
		name   string
		search func(context.Context, Objective, decomp.Point, Options) (*Result, error)
		target []cnf.Var
		opts   Options
		passes []pinnedPass
		trace  []string
	}{
		{
			name:   "tabu",
			search: TabuSearch,
			target: []cnf.Var{2, 5},
			opts:   Options{Seed: 11, MaxEvaluations: 23},
			passes: []pinnedPass{
				{"1111111", 1, 7, 7, 2, 0, true, 5},
				{"1111101", 1, 6, 6, 2, 0, true, 4},
				{"1111100", 1, 5, 5, 2, 0, true, 3},
				{"1110100", 1, 5, 4, 3, 1, true, 2},
			},
			trace: []string{
				"0 1111111 6 true true false",
				"1 1111101 5 true true false",
				"2 1111110 5 false false false",
				"3 1110111 5 false false false",
				"4 0111111 5 false false false",
				"5 1111011 6 false false true",
				"6 1101111 5 false false false",
				"7 1011111 6 false false true",
				"8 1111100 4 true true false",
				"9 1111001 5 false false true",
				"10 1101101 4 false false false",
				"11 1110101 4 false false false",
				"12 1011101 5 false false true",
				"13 0111101 4 false false false",
				"14 1110100 3 true true false",
				"15 1101100 3 false false false",
				"16 1111000 4 false false true",
				"17 0111100 3 false false false",
				"18 1011100 4 false false true",
				"19 1110000 3.5 false false true",
				"20 1010100 3.5 false false true",
				"21 1110110 3.5 false false true",
				"22 0110100 2 true true false",
			},
		},
		{
			name:   "sa",
			search: SimulatedAnnealing,
			target: []cnf.Var{1, 4, 6},
			opts:   Options{Seed: 13, MaxEvaluations: 12, InitialTemperature: 0.5, CoolingFactor: 0.97},
			passes: []pinnedPass{
				{"1111111", 1, 1, 1, 0, 0, true, 4},
				{"1111011", 1, 1, 1, 1, 0, false, 4},
				{"1111001", 1, 1, 1, 1, 0, false, 4},
				{"1111001", 1, 1, 1, 0, 0, false, 4},
				{"1011001", 1, 1, 1, 0, 0, true, 3},
				{"1011011", 1, 1, 1, 0, 0, true, 2},
				{"1001011", 1, 1, 1, 1, 0, false, 2},
				{"1001011", 1, 1, 1, 1, 0, false, 2},
				{"1001001", 1, 1, 0, 0, 0, false, 2},
				{"1001001", 1, 1, 1, 1, 0, false, 2},
				{"1001001", 1, 1, 0, 0, 0, false, 2},
				{"1001011", 1, 1, 0, 0, 0, false, 2},
				{"1001011", 1, 1, 1, 1, 0, false, 2},
				{"1001011", 1, 1, 1, 1, 0, false, 2},
			},
			trace: []string{
				"0 1111111 5 true true false",
				"1 1111011 4 true true false",
				"2 1111001 4.5 true false true",
				"3 1110001 5 false false true",
				"4 1011001 4 true false false",
				"5 1011011 3 true true false",
				"6 1001011 2 true true false",
				"7 1101011 2.5 false false true",
				"8 1001001 2.5 true false true",
				"9 1011001 4 false false false",
				"10 0001001 3 false false true",
				"11 1001011 2 true false false",
				"12 1011011 3 false false false",
				"13 0001011 2.5 false false true",
				"14 1001111 2.5 true false true",
			},
		},
	} {
		var passes []pinnedPass
		opts := tc.opts
		opts.NeighborhoodObserver = func(nb Neighborhood) {
			passes = append(passes, pinnedPass{nb.Center.Key(), nb.Radius, nb.Candidates,
				nb.Evaluated, nb.Pruned, nb.Cancelled, nb.Improved, nb.BestValue})
		}
		res, err := tc.search(context.Background(), pruningObjective{newCountingObjective(tc.target)}, makeSpace(7).FullPoint(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stop != StopEvaluations {
			t.Fatalf("%s: stop %q, want %q", tc.name, res.Stop, StopEvaluations)
		}
		var trace []string
		for _, v := range res.Trace {
			trace = append(trace, traceLine(v))
		}
		if !reflect.DeepEqual(passes, tc.passes) {
			t.Errorf("%s: passes\n%#v\nwant\n%#v", tc.name, passes, tc.passes)
		}
		if !reflect.DeepEqual(trace, tc.trace) {
			t.Errorf("%s: trace\n%#v\nwant\n%#v", tc.name, trace, tc.trace)
		}
	}
}
