package optimize

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/decomp"
	"github.com/paper-repro/pdsat-go/internal/eval"
)

// makeSpace builds a search space over n variables 1..n.
func makeSpace(n int) *decomp.Space {
	vars := make([]cnf.Var, n)
	for i := range vars {
		vars[i] = cnf.Var(i + 1)
	}
	return decomp.NewSpace(vars)
}

// countingObjective is a synthetic objective with a known optimum: the
// target set of variables.  F(χ) = 1 + |χ Δ target| (symmetric difference),
// so the unique global minimum (value 1) is reached exactly at the target.
type countingObjective struct {
	target      map[cnf.Var]bool
	evaluations int
	activity    map[cnf.Var]float64
}

func newCountingObjective(target []cnf.Var) *countingObjective {
	m := make(map[cnf.Var]bool, len(target))
	for _, v := range target {
		m[v] = true
	}
	return &countingObjective{target: m, activity: map[cnf.Var]float64{}}
}

func (o *countingObjective) EvaluateF(_ context.Context, p decomp.Point, _ float64) (*eval.Evaluation, error) {
	return &eval.Evaluation{Value: o.value(p)}, nil
}

func (o *countingObjective) value(p decomp.Point) float64 {
	o.evaluations++
	diff := 0
	selected := make(map[cnf.Var]bool)
	for _, v := range p.Vars() {
		selected[v] = true
		if !o.target[v] {
			diff++
		}
	}
	for v := range o.target {
		if !selected[v] {
			diff++
		}
	}
	return 1 + float64(diff)
}

func (o *countingObjective) VarActivity(v cnf.Var) float64 { return o.activity[v] }

// evalFunc is an objective over a plain function: its value is the
// evaluation, and nothing is ever pruned.
type evalFunc func(ctx context.Context, p decomp.Point) (float64, error)

func (f evalFunc) EvaluateF(ctx context.Context, p decomp.Point, _ float64) (*eval.Evaluation, error) {
	v, err := f(ctx, p)
	if err != nil {
		return nil, err
	}
	return &eval.Evaluation{Value: v}, nil
}

func TestSimulatedAnnealingFindsTarget(t *testing.T) {
	s := makeSpace(8)
	target := []cnf.Var{2, 3, 5}
	obj := newCountingObjective(target)
	start := s.FullPoint()
	res, err := SimulatedAnnealing(context.Background(), obj, start, Options{
		Seed:               3,
		MaxEvaluations:     2000,
		InitialTemperature: 0.5,
		CoolingFactor:      0.97,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestValue != 1 {
		t.Fatalf("SA did not find the optimum: best=%v point=%v", res.BestValue, res.BestPoint.SortedVars())
	}
	got := res.BestPoint.SortedVars()
	if len(got) != len(target) {
		t.Fatalf("best point = %v, want %v", got, target)
	}
	for i := range target {
		if got[i] != target[i] {
			t.Fatalf("best point = %v, want %v", got, target)
		}
	}
	if res.Evaluations == 0 || len(res.Trace) == 0 {
		t.Fatal("SA should record evaluations and a trace")
	}
	if res.WallTime < 0 {
		t.Fatal("negative wall time")
	}
	if !strings.Contains(res.String(), "best F") {
		t.Fatal("Result.String misbehaves")
	}
}

func TestTabuSearchFindsTarget(t *testing.T) {
	s := makeSpace(8)
	target := []cnf.Var{1, 4, 7, 8}
	obj := newCountingObjective(target)
	start := s.FullPoint()
	res, err := TabuSearch(context.Background(), obj, start, Options{Seed: 5, MaxEvaluations: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestValue != 1 {
		t.Fatalf("tabu search did not find the optimum: best=%v point=%v", res.BestValue, res.BestPoint.SortedVars())
	}
	got := res.BestPoint.SortedVars()
	for i := range target {
		if got[i] != target[i] {
			t.Fatalf("best point = %v, want %v", got, target)
		}
	}
}

func TestTabuSearchVisitsMorePointsThanSA(t *testing.T) {
	// The paper notes that tabu search traverses more points of the search
	// space per time unit because it never re-evaluates a point.  With an
	// equal evaluation budget both must stay within the budget; tabu must
	// never evaluate the same point twice.
	s := makeSpace(10)
	target := []cnf.Var{1, 2, 3}
	objSA := newCountingObjective(target)
	objTabu := newCountingObjective(target)
	budget := 120
	start := s.FullPoint()
	_, err := SimulatedAnnealing(context.Background(), objSA, start, Options{Seed: 7, MaxEvaluations: budget})
	if err != nil {
		t.Fatal(err)
	}
	resTabu, err := TabuSearch(context.Background(), objTabu, start, Options{Seed: 7, MaxEvaluations: budget})
	if err != nil {
		t.Fatal(err)
	}
	if objSA.evaluations > budget || objTabu.evaluations > budget {
		t.Fatalf("budgets exceeded: SA=%d tabu=%d", objSA.evaluations, objTabu.evaluations)
	}
	seen := map[string]int{}
	for _, v := range resTabu.Trace {
		seen[v.Point.Key()]++
	}
	for k, c := range seen {
		if c > 1 {
			t.Fatalf("tabu search evaluated point %s %d times", k, c)
		}
	}
}

func TestEvaluationBudgetStopsSearch(t *testing.T) {
	s := makeSpace(12)
	obj := newCountingObjective([]cnf.Var{6})
	res, err := TabuSearch(context.Background(), obj, s.FullPoint(), Options{Seed: 1, MaxEvaluations: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations > 5 {
		t.Fatalf("evaluations = %d, want <= 5", res.Evaluations)
	}
	if res.Stop != StopEvaluations {
		t.Fatalf("stop reason = %v", res.Stop)
	}
	res, err = SimulatedAnnealing(context.Background(), obj, s.FullPoint(), Options{Seed: 1, MaxEvaluations: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations > 5 || res.Stop != StopEvaluations {
		t.Fatalf("SA evaluations=%d stop=%v", res.Evaluations, res.Stop)
	}
}

// TestTimeBudgetStopsSearch: a wall-clock budget is a context deadline, which
// ends a search gracefully with its best so far.
func TestTimeBudgetStopsSearch(t *testing.T) {
	s := makeSpace(10)
	slow := evalFunc(func(_ context.Context, p decomp.Point) (float64, error) {
		time.Sleep(2 * time.Millisecond)
		return float64(p.Count()), nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	res, err := TabuSearch(ctx, slow, s.FullPoint(), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stop != StopContext || math.IsInf(res.BestValue, 0) {
		t.Fatalf("stop reason = %v, best %v", res.Stop, res.BestValue)
	}
}

func TestContextCancellationStopsSearch(t *testing.T) {
	s := makeSpace(10)
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	obj := evalFunc(func(_ context.Context, p decomp.Point) (float64, error) {
		n++
		if n == 3 {
			cancel()
		}
		return float64(p.Count()), nil
	})
	res, err := TabuSearch(ctx, obj, s.FullPoint(), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stop != StopContext {
		t.Fatalf("stop reason = %v", res.Stop)
	}
}

func TestObjectiveErrorPropagates(t *testing.T) {
	s := makeSpace(6)
	boom := errors.New("boom")
	n := 0
	obj := evalFunc(func(_ context.Context, p decomp.Point) (float64, error) {
		n++
		if n > 2 {
			return 0, boom
		}
		return float64(p.Count()), nil
	})
	if _, err := TabuSearch(context.Background(), obj, s.FullPoint(), Options{Seed: 1}); !errors.Is(err, boom) {
		t.Fatalf("expected objective error, got %v", err)
	}
	n = 0
	if _, err := SimulatedAnnealing(context.Background(), obj, s.FullPoint(), Options{Seed: 1}); !errors.Is(err, boom) {
		t.Fatalf("expected objective error, got %v", err)
	}
}

func TestSimulatedAnnealingTemperatureLimit(t *testing.T) {
	s := makeSpace(6)
	obj := newCountingObjective([]cnf.Var{999}) // unreachable target: constant-ish landscape
	res, err := SimulatedAnnealing(context.Background(), obj, s.EmptyPoint().Flip(0), Options{
		Seed:               2,
		InitialTemperature: 0.01,
		CoolingFactor:      0.5,
		MinTemperature:     0.005,
		MaxEvaluations:     10000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stop != StopTemperature && res.Stop != StopNoImprovement {
		t.Fatalf("stop reason = %v", res.Stop)
	}
}

func TestTabuSearchExhaustsTinySpace(t *testing.T) {
	// With 3 candidate variables the space has 8 points; an unlimited tabu
	// search must terminate by exhausting L2 after visiting every point
	// reachable by radius-1 moves except the empty set, which is not a
	// decomposition and is never a candidate.
	s := makeSpace(3)
	obj := newCountingObjective([]cnf.Var{1})
	res, err := TabuSearch(context.Background(), obj, s.FullPoint(), Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stop != StopExhausted {
		t.Fatalf("stop reason = %v, want exhausted", res.Stop)
	}
	if res.BestValue != 1 {
		t.Fatalf("best value = %v", res.BestValue)
	}
	// All 2^3 - 1 = 7 non-empty points are reachable and should have been
	// evaluated.
	if res.Evaluations != 7 {
		t.Fatalf("evaluations = %d, want 7", res.Evaluations)
	}
}

func TestGetNewCenterUsesActivity(t *testing.T) {
	// Construct a tabu list with two entries and verify the activity-based
	// choice prefers the set with higher total activity.
	s := makeSpace(4)
	obj := newCountingObjective([]cnf.Var{1, 2})
	obj.activity[3] = 100 // make variable 3 very active
	tl := newTabuLists(1)
	values := map[string]valued{}
	pA, _ := s.PointFromVars([]cnf.Var{1})
	pB, _ := s.PointFromVars([]cnf.Var{3})
	values[pA.Key()] = valued{value: 1}
	values[pB.Key()] = valued{value: 50}
	tl.addChecked(pA, 1, values)
	tl.addChecked(pB, 50, values)
	center, ok := tl.getNewCenter(obj)
	if !ok {
		t.Fatal("expected a centre")
	}
	if !center.Has(3) {
		t.Fatalf("activity heuristic should pick the set containing variable 3, got %v", center.SortedVars())
	}
	// Without activity information the fall-back picks the better F value.
	plain := evalFunc(func(_ context.Context, p decomp.Point) (float64, error) { return 0, nil })
	center, ok = tl.getNewCenter(plain)
	if !ok {
		t.Fatal("expected a centre")
	}
	if !center.Has(1) {
		t.Fatalf("value fall-back should pick the point with smaller F, got %v", center.SortedVars())
	}
}

func TestTabuListsBookkeeping(t *testing.T) {
	s := makeSpace(2) // 4 points, radius-1 neighbourhoods of size 2
	tl := newTabuLists(1)
	values := map[string]valued{}
	p00 := s.EmptyPoint()
	p01 := p00.Flip(0)
	p10 := p00.Flip(1)
	values[p00.Key()] = valued{value: 1}
	tl.addChecked(p00, 1, values)
	if tl.L2Size() != 1 || tl.L1Size() != 0 {
		t.Fatalf("after first point: L1=%d L2=%d", tl.L1Size(), tl.L2Size())
	}
	values[p01.Key()] = valued{value: 2}
	tl.addChecked(p01, 2, values)
	values[p10.Key()] = valued{value: 3}
	tl.addChecked(p10, 3, values)
	// p00's neighbourhood {p01,p10} is now fully checked -> moved to L1.
	if tl.L1Size() != 1 || tl.L2Size() != 2 {
		t.Fatalf("after three points: L1=%d L2=%d", tl.L1Size(), tl.L2Size())
	}
}

func TestOptionsWithDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Radius != 1 || o.CoolingFactor <= 0 || o.CoolingFactor >= 1 || o.MinTemperature <= 0 || o.Seed == 0 {
		t.Fatalf("defaults not applied: %+v", o)
	}
	o2 := Options{Radius: 2, MaxRadius: 1}.withDefaults()
	if o2.MaxRadius < o2.Radius {
		t.Fatal("MaxRadius should be at least Radius")
	}
}

func TestPointAcceptedRule(t *testing.T) {
	s := newSearch(evalFunc(func(context.Context, decomp.Point) (float64, error) { return 0, nil }),
		Options{Seed: 1}.withDefaults())
	if !s.pointAccepted(1, 2, 0.5) {
		t.Fatal("improving point must always be accepted")
	}
	if s.pointAccepted(2, 1, 0) {
		t.Fatal("worse point at zero temperature must be rejected")
	}
	// At very high temperature a slightly worse point is almost always
	// accepted; at very low temperature almost never.
	acceptHot, acceptCold := 0, 0
	for i := 0; i < 200; i++ {
		if s.pointAccepted(1.01, 1, 1e6) {
			acceptHot++
		}
		if s.pointAccepted(2, 1, 1e-9) {
			acceptCold++
		}
	}
	if acceptHot < 190 {
		t.Fatalf("hot acceptance too low: %d/200", acceptHot)
	}
	if acceptCold > 5 {
		t.Fatalf("cold acceptance too high: %d/200", acceptCold)
	}
}

func TestSearchIsDeterministicForFixedSeed(t *testing.T) {
	s := makeSpace(9)
	target := []cnf.Var{2, 5, 8}
	run := func() *Result {
		obj := newCountingObjective(target)
		res, err := TabuSearch(context.Background(), obj, s.FullPoint(), Options{Seed: 11, MaxEvaluations: 200})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := run(), run()
	if r1.Evaluations != r2.Evaluations || r1.BestValue != r2.BestValue ||
		!r1.BestPoint.Equal(r2.BestPoint) || len(r1.Trace) != len(r2.Trace) {
		t.Fatal("tabu search is not deterministic for a fixed seed")
	}
	if math.IsNaN(r1.BestValue) {
		t.Fatal("NaN best value")
	}
}

func TestStopReasonsAreNonEmptyStrings(t *testing.T) {
	for _, r := range []StopReason{StopEvaluations, StopTemperature, StopExhausted, StopContext, StopNoImprovement} {
		if string(r) == "" {
			t.Fatal("empty stop reason")
		}
	}
}
