package pdsat

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/paper-repro/pdsat-go/internal/decomp"
	"github.com/paper-repro/pdsat-go/internal/eval"
	"github.com/paper-repro/pdsat-go/internal/optimize"
)

// distanceObjective is a synthetic F: 1 + |χ Δ target|, each evaluation
// optionally delayed.  It records every point it evaluates and whether the
// last evaluation's context was already done.
type distanceObjective struct {
	target    map[Var]bool
	delay     time.Duration
	evaluated []Point
	lastErr   error
}

func newDistanceObjective(delay time.Duration, target ...Var) *distanceObjective {
	o := &distanceObjective{target: map[Var]bool{}, delay: delay}
	for _, v := range target {
		o.target[v] = true
	}
	return o
}

func (o *distanceObjective) EvaluateF(ctx context.Context, p Point, _ float64) (*eval.Evaluation, error) {
	time.Sleep(o.delay)
	o.evaluated = append(o.evaluated, p)
	o.lastErr = ctx.Err()
	diff := len(o.target)
	for _, v := range p.Vars() {
		if o.target[v] {
			diff--
		} else {
			diff++
		}
	}
	v := float64(1 + diff)
	return &eval.Evaluation{Value: v, Estimate: Estimate{Value: v, SampleSize: 1}}, nil
}

// stopAfterStart is a search that evaluates its start, offers it and ends
// with the given stop reason.
func stopAfterStart(stop StopReason) searchFunc {
	return func(ctx context.Context, obj optimize.Objective, start Point, opts SearchOptions) (*SearchResult, error) {
		ev, err := obj.EvaluateF(ctx, start, math.Inf(1))
		if err != nil {
			return nil, err
		}
		opts.Shared.Offer(start, ev.Value)
		return &SearchResult{BestPoint: start, BestValue: ev.Value, Evaluations: 1, Stop: stop}, nil
	}
}

// waitAfterStart is a search that evaluates its start, then runs until the
// race ends it (StopContext).
func waitAfterStart(ctx context.Context, obj optimize.Objective, start Point, opts SearchOptions) (*SearchResult, error) {
	res, _ := stopAfterStart(StopEvaluations)(ctx, obj, start, opts)
	select {
	case <-ctx.Done():
		res.Stop = StopContext
	case <-time.After(10 * time.Second):
		return nil, errors.New("the race never ended this search")
	}
	return res, nil
}

// failWith is a search that fails at once.
func failWith(err error) searchFunc {
	return func(context.Context, optimize.Objective, Point, SearchOptions) (*SearchResult, error) {
		return nil, err
	}
}

// certifyNothing is a search cancelled before its start evaluation finished.
func certifyNothing(context.Context, optimize.Objective, Point, SearchOptions) (*SearchResult, error) {
	return &SearchResult{BestValue: math.Inf(1), Stop: StopContext}, nil
}

// raceSpace is the search space of the race tests: variables 1..8.
func raceSpace() *decomp.Space { return decomp.NewSpace([]Var{1, 2, 3, 4, 5, 6, 7, 8}) }

// raceSession is enough of a session for race: the core count of its
// estimates.
func raceSession() *Session { return &Session{cfg: Config{Cores: 480}} }

// TestRaceRunsEveryMemberToItsOwnStop: a search that exhausts its space, or
// finds no unchecked point, does not end the race for the others.  The other
// search outlives it and reaches its own stop, and both best points are
// re-estimated.
func TestRaceRunsEveryMemberToItsOwnStop(t *testing.T) {
	start := raceSpace().FullPoint()
	for _, stop := range []StopReason{StopExhausted, StopNoImprovement} {
		finished := make(chan struct{})
		// outlive waits until run 0 has finished and a little longer, then
		// stops on its own budget — or on the race's context, had run 0's
		// stop ended the race.
		outlive := func(ctx context.Context, obj optimize.Objective, start Point, opts SearchOptions) (*SearchResult, error) {
			res, err := stopAfterStart(StopEvaluations)(ctx, obj, start, opts)
			if err != nil {
				return nil, err
			}
			<-finished
			select {
			case <-ctx.Done():
				res.Stop = StopContext
			case <-time.After(20 * time.Millisecond):
			}
			return res, nil
		}
		runs := []searchRun{
			{search: stopAfterStart(stop), obj: newDistanceObjective(0, 1), start: start},
			{search: outlive, obj: newDistanceObjective(0, 2), start: start},
		}
		var done []int
		out := raceSession().race(context.Background(), runs, optimize.NewIncumbent(), func(member int, res *SearchResult) {
			done = append(done, member)
			if member == 0 {
				close(finished)
			}
		})
		if out[0].res.Stop != stop || out[1].res.Stop != StopEvaluations {
			t.Fatalf("%s: stops %q, %q; want %q, %q", stop, out[0].res.Stop, out[1].res.Stop, stop, StopEvaluations)
		}
		if len(done) != 2 || done[0] != 0 || done[1] != 1 {
			t.Fatalf("%s: onDone called for %v, want [0 1]", stop, done)
		}
		for i, r := range out {
			if r.err != nil || r.best == nil || r.best.Estimate.Value != r.res.BestValue {
				t.Fatalf("%s: run %d = %+v, want its best re-estimated", stop, i, r)
			}
			if err := runs[i].obj.(*distanceObjective).lastErr; err != nil {
				t.Fatalf("%s: run %d re-estimated under a cancelled context: %v", stop, i, err)
			}
		}
	}
}

// TestRaceHardErrorCancelsTheOthers: a search's hard error ends the race,
// comes back unchanged for the run, and a fleet's error names the member.
func TestRaceHardErrorCancelsTheOthers(t *testing.T) {
	boom := errors.New("boom")
	start := raceSpace().FullPoint()
	runs := []searchRun{
		{search: waitAfterStart, obj: newDistanceObjective(0, 1), start: start},
		{search: failWith(boom), obj: newDistanceObjective(0, 1), start: start},
	}
	var done []int
	out := raceSession().race(context.Background(), runs, optimize.NewIncumbent(), func(member int, _ *SearchResult) {
		done = append(done, member)
	})
	if out[1].err != boom || out[1].res != nil || out[1].best != nil {
		t.Fatalf("failed run = %+v, want boom and nothing else", out[1])
	}
	if out[0].err != nil || out[0].res.Stop != StopContext {
		t.Fatalf("surviving run = %+v, want it cancelled by the error", out[0])
	}
	if len(done) != 1 || done[0] != 0 {
		t.Fatalf("onDone called for %v, want [0] (not for the failed run)", done)
	}
	members := []expandedMember{{method: MethodTabu}, {method: MethodSimulatedAnnealing}}
	outcome, err := fleetOutcome(7, members, runs, out)
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "fleet member 1") {
		t.Fatalf("fleet error %v, want boom naming member 1", err)
	}
	if outcome.Members[1].Err != "boom" || outcome.BestMember != 0 {
		t.Fatalf("fleet outcome: member 1 error %q, winner %d", outcome.Members[1].Err, outcome.BestMember)
	}
}

// TestRaceReestimatesThroughTheRunsObjective: each certified best point is
// evaluated once more, through its own run's objective; a run that certified
// nothing and a failed run are not.
func TestRaceReestimatesThroughTheRunsObjective(t *testing.T) {
	space := raceSpace()
	start, other := space.FullPoint(), space.FullPoint().Flip(0)
	objs := []*distanceObjective{
		newDistanceObjective(0, 1, 2),
		newDistanceObjective(0, 3, 4, 5),
		newDistanceObjective(0, 1),
		newDistanceObjective(0, 1),
	}
	runs := []searchRun{
		{search: stopAfterStart(StopEvaluations), obj: objs[0], start: start},
		{search: stopAfterStart(StopEvaluations), obj: objs[1], start: other},
		{search: certifyNothing, obj: objs[2], start: start},
		{search: failWith(errors.New("boom")), obj: objs[3], start: start},
	}
	// The failure cancels the others, which have certified their start by
	// then or not, so run the failure alone.
	out := raceSession().race(context.Background(), runs[:3], optimize.NewIncumbent(), nil)
	out = append(out, raceSession().race(context.Background(), runs[3:], optimize.NewIncumbent(), nil)...)
	for i, want := range []Point{start, other} {
		if len(objs[i].evaluated) != 2 || objs[i].evaluated[1].Key() != want.Key() {
			t.Fatalf("run %d evaluated %d points, want its start twice", i, len(objs[i].evaluated))
		}
		if out[i].best == nil || out[i].best.Estimate.Value != out[i].res.BestValue || len(out[i].best.Vars) != want.Count() {
			t.Fatalf("run %d best estimate %+v, want F %v of its own objective", i, out[i].best, out[i].res.BestValue)
		}
	}
	if out[0].best.Estimate.Value == out[1].best.Estimate.Value {
		t.Fatal("the two runs' objectives gave the same value; the test cannot tell them apart")
	}
	for i := 2; i < 4; i++ {
		if len(objs[i].evaluated) != 0 || out[i].best != nil {
			t.Fatalf("run %d: %d evaluations, best %+v; want no re-estimation", i, len(objs[i].evaluated), out[i].best)
		}
	}
}

// TestRaceDeterministicPerMember races a coupled tabu/annealing field twice,
// once with slow and once with instant evaluations: how the goroutines
// interleave must not leak into any member's result.  The shared incumbent
// ends at the lowest member best, its improvements arrive strictly
// decreasing, and a run that brings its own incumbent keeps it.
func TestRaceDeterministicPerMember(t *testing.T) {
	space := raceSpace()
	var improvedBy int // the member behind the shared incumbent's last improvement
	run := func(delay time.Duration) ([]runResult, *optimize.Incumbent, []float64, *optimize.Incumbent) {
		shared, own := optimize.NewIncumbent(), optimize.NewIncumbent()
		var improvements []float64
		improvedBy = -1
		shared.OnImproved = func(member int, _ Point, v float64) {
			improvements = append(improvements, v)
			improvedBy = member
		}
		runs := make([]searchRun, 5)
		for i := range runs {
			search := optimize.TabuSearch
			if i%2 == 1 {
				search = optimize.SimulatedAnnealing
			}
			runs[i] = searchRun{
				search: search,
				obj:    newDistanceObjective(delay, 2, 5, 7),
				start:  space.FullPoint(),
				opts:   SearchOptions{Seed: SubSeed(3, 3*i+1), MaxEvaluations: 30},
			}
		}
		runs[4].opts.Shared = own.MemberView(4)
		return raceSession().race(context.Background(), runs, shared, nil), shared, improvements, own
	}
	a, shared, improvements, own := run(100 * time.Microsecond)
	lastImprover := improvedBy
	b, _, _, _ := run(0)
	lowest := math.Inf(1)
	for i := range a {
		ra, rb := a[i].res, b[i].res
		if a[i].err != nil || b[i].err != nil {
			t.Fatalf("member %d failed: %v / %v", i, a[i].err, b[i].err)
		}
		if ra.BestPoint.Key() != rb.BestPoint.Key() || ra.BestValue != rb.BestValue ||
			ra.Evaluations != rb.Evaluations || ra.Stop != rb.Stop || len(ra.Trace) != len(rb.Trace) {
			t.Fatalf("member %d differs across runs: %v vs %v", i, ra, rb)
		}
		for k := range ra.Trace {
			va, vb := ra.Trace[k], rb.Trace[k]
			if va.Point.Key() != vb.Point.Key() || va.Value != vb.Value || va.Accepted != vb.Accepted ||
				va.Improved != vb.Improved || va.Pruned != vb.Pruned {
				t.Fatalf("member %d visit %d differs across runs: %+v vs %+v", i, k, va, vb)
			}
		}
		if a[i].best.Estimate.Value != b[i].best.Estimate.Value {
			t.Fatalf("member %d best estimate differs across runs", i)
		}
		if i < 4 {
			lowest = math.Min(lowest, ra.BestValue)
		}
	}
	if shared.Best() != lowest {
		t.Fatalf("shared incumbent ended at %v, want the lowest best of the members coupled to it, %v", shared.Best(), lowest)
	}
	if lastImprover < 0 || lastImprover >= 4 || a[lastImprover].res.BestValue != lowest {
		t.Fatalf("shared incumbent last improved by member %d", lastImprover)
	}
	if own.Best() != a[4].res.BestValue {
		t.Fatalf("member 4's own incumbent holds %v, want its best %v", own.Best(), a[4].res.BestValue)
	}
	if len(improvements) == 0 {
		t.Fatal("no incumbent improvement reported")
	}
	for i := 1; i < len(improvements); i++ {
		if improvements[i] >= improvements[i-1] {
			t.Fatalf("improvements not strictly decreasing: %v", improvements)
		}
	}
}
