package optimize

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/decomp"
	"github.com/paper-repro/pdsat-go/internal/eval"
)

// safeObjective wraps countingObjective for concurrent evaluation (the
// scheduler's width > 1 contract requires a concurrency-safe objective).
type safeObjective struct {
	noSlots
	mu    sync.Mutex
	inner *countingObjective
	delay time.Duration
}

func (o *safeObjective) EvaluateSlotF(ctx context.Context, p decomp.Point, incumbent float64, slot int) (*eval.Evaluation, error) {
	if o.delay > 0 {
		select {
		case <-time.After(o.delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.inner.EvaluateSlotF(ctx, p, incumbent, slot)
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
		run.Trace = append(run.Trace, fmt.Sprintf("%d %s %v %t %t %t", v.Index, v.Point.Key(), v.Value, v.Accepted, v.Improved, v.Pruned))
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
// annealing: every wave holds exactly one candidate, so the
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

// TestTabuScheduledWideTraceMatchesSequential: without pruning, a wide
// tabu neighbourhood pass evaluates exactly the pre-drawn visit order the
// width-1 search walks, delivers results in that order, and the pass
// always runs to exhaustion — so even at width 4 the full trace is
// identical to the one-at-a-time search, not just the selected centres.
func TestTabuScheduledWideTraceMatchesSequential(t *testing.T) {
	s := makeSpace(6)
	target := []cnf.Var{3, 4}
	run := func(width int) *Result {
		obj := &safeObjective{inner: newCountingObjective(target)}
		res, err := TabuSearch(context.Background(), obj, s.FullPoint(), Options{
			Seed:               7,
			MaxConcurrentEvals: width,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(1)
	if seq.Stop != StopExhausted {
		t.Fatalf("width-1 run stopped with %q, want exhaustion of the tiny space", seq.Stop)
	}
	resultsEqual(t, run(4), seq)
}

// TestTabuScheduledWideDeterministic: run-to-run determinism of the wide
// scheduler — completion order varies freely across runs (jittered
// objective latencies), selected centres, best F and the full trace must
// not.
func TestTabuScheduledWideDeterministic(t *testing.T) {
	s := makeSpace(6)
	target := []cnf.Var{1, 6}
	run := func(delay time.Duration) *Result {
		obj := &safeObjective{inner: newCountingObjective(target), delay: delay}
		res, err := TabuSearch(context.Background(), obj, s.FullPoint(), Options{
			Seed:               21,
			MaxConcurrentEvals: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	resultsEqual(t, run(200*time.Microsecond), run(0))
}

// TestSAScheduledWideDeterministic: the annealing's speculative waves
// discard unprocessed members whole, so its walk is deterministic for a
// fixed seed regardless of how completions interleave.
func TestSAScheduledWideDeterministic(t *testing.T) {
	s := makeSpace(6)
	target := []cnf.Var{2, 3, 5}
	run := func(delay time.Duration) *Result {
		obj := &safeObjective{inner: newCountingObjective(target), delay: delay}
		res, err := SimulatedAnnealing(context.Background(), obj, s.FullPoint(), Options{
			Seed:               31,
			MaxEvaluations:     300,
			InitialTemperature: 0.4,
			CoolingFactor:      0.96,
			MaxConcurrentEvals: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(150*time.Microsecond), run(0)
	resultsEqual(t, a, b)
	if a.BestValue != 1 {
		t.Fatalf("wide SA missed the optimum: best=%v", a.BestValue)
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
		MaxConcurrentEvals:   2,
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
		if nb.Width != 2 {
			t.Fatalf("pass %d width %d, want 2", i, nb.Width)
		}
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

// TestScheduledSearchCancellation: cancelling mid-neighbourhood unwinds
// the frontier and ends both searches gracefully with StopContext.
func TestScheduledSearchCancellation(t *testing.T) {
	s := makeSpace(10)
	for _, method := range []string{"tabu", "sa"} {
		obj := &safeObjective{inner: newCountingObjective([]cnf.Var{5}), delay: time.Millisecond}
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(5 * time.Millisecond)
			cancel()
		}()
		opts := Options{Seed: 17, MaxConcurrentEvals: 4, InitialTemperature: 0.5}
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

// TestFleetScheduledSharedIncumbent couples two scheduler-driven tabu
// members through a fleet's shared incumbent: each member's frontier
// waves seed their live bound from the global best, and the race still
// finds the optimum deterministically.
func TestFleetScheduledSharedIncumbent(t *testing.T) {
	s := makeSpace(6)
	target := []cnf.Var{2, 4}
	run := func(delay time.Duration) *FleetResult {
		members := make([]FleetMember, 2)
		for i := range members {
			members[i] = FleetMember{
				Search:    TabuSearch,
				Objective: &safeObjective{inner: newCountingObjective(target), delay: delay},
				Start:     s.FullPoint(),
				Opts: Options{
					Seed:               SubSeed(43, i),
					MaxEvaluations:     120,
					MaxConcurrentEvals: 2,
				},
			}
		}
		fr, err := RunFleet(context.Background(), members, FleetOptions{KeepRacing: true})
		if err != nil {
			t.Fatal(err)
		}
		return fr
	}
	a, b := run(100*time.Microsecond), run(0)
	if a.Best < 0 || a.BestValue != 1 {
		t.Fatalf("scheduled fleet missed the optimum: %+v", a)
	}
	if a.BestValue != b.BestValue || a.BestPoint.Key() != b.BestPoint.Key() {
		t.Fatalf("scheduled fleet best diverges run to run: %v/%v vs %v/%v",
			a.BestValue, a.BestPoint.SortedVars(), b.BestValue, b.BestPoint.SortedVars())
	}
	for i := range a.Members {
		resultsEqual(t, a.Members[i].Result, b.Members[i].Result)
	}
}

// TestValidateRejectsNegativeConcurrency covers the new option's guard.
func TestValidateRejectsNegativeConcurrency(t *testing.T) {
	if err := (Options{MaxConcurrentEvals: -1}).Validate(); err == nil {
		t.Fatal("negative MaxConcurrentEvals accepted")
	}
	if err := (Options{MaxConcurrentEvals: 8}).Validate(); err != nil {
		t.Fatalf("valid concurrency rejected: %v", err)
	}
}
