package optimize

import (
	"context"
	"math"
	"strings"
	"testing"

	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/decomp"
)

func TestOptionsValidate(t *testing.T) {
	if err := (Options{}).Validate(); err != nil {
		t.Fatalf("zero options must validate: %v", err)
	}
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatalf("default options must validate: %v", err)
	}
	cases := []struct {
		name string
		opts Options
		want string
	}{
		{"negative radius", Options{Radius: -1}, "radius"},
		{"negative max radius", Options{MaxRadius: -2}, "radius"},
		{"max radius below radius", Options{Radius: 3, MaxRadius: 2}, "radius"},
		{"negative evaluations", Options{MaxEvaluations: -5}, "evaluation budget"},
		{"negative initial temperature", Options{InitialTemperature: -1}, "temperature"},
		{"negative min temperature", Options{MinTemperature: -1e-9}, "temperature"},
		{"negative cooling", Options{CoolingFactor: -0.5}, "cooling factor"},
		{"cooling at one", Options{CoolingFactor: 1}, "cooling factor"},
		// NaN fails every comparison, so each float field is tried with it
		// and with both infinities.
		{"NaN initial temperature", Options{InitialTemperature: math.NaN()}, "temperature"},
		{"infinite initial temperature", Options{InitialTemperature: math.Inf(1)}, "temperature"},
		{"negative infinite initial temperature", Options{InitialTemperature: math.Inf(-1)}, "temperature"},
		{"NaN cooling", Options{CoolingFactor: math.NaN()}, "cooling factor"},
		{"infinite cooling", Options{CoolingFactor: math.Inf(1)}, "cooling factor"},
		{"negative infinite cooling", Options{CoolingFactor: math.Inf(-1)}, "cooling factor"},
		{"NaN min temperature", Options{MinTemperature: math.NaN()}, "temperature"},
		{"infinite min temperature", Options{MinTemperature: math.Inf(1)}, "temperature"},
		{"negative infinite min temperature", Options{MinTemperature: math.Inf(-1)}, "temperature"},
	}
	for _, tc := range cases {
		err := tc.opts.Validate()
		if err == nil {
			t.Errorf("%s: expected error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestSearchEntryPointsValidate checks that both minimizers reject bad
// options eagerly instead of silently coercing them.
func TestSearchEntryPointsValidate(t *testing.T) {
	space := makeSpace(3)
	obj := evalFunc(func(ctx context.Context, p decomp.Point) (float64, error) {
		return float64(p.Count()), nil
	})
	bad := Options{MaxEvaluations: -1}
	if _, err := TabuSearch(context.Background(), obj, space.FullPoint(), bad); err == nil {
		t.Fatal("TabuSearch accepted a negative evaluation budget")
	}
	if _, err := SimulatedAnnealing(context.Background(), obj, space.FullPoint(), bad); err == nil {
		t.Fatal("SimulatedAnnealing accepted a negative evaluation budget")
	}
}

// TestObserverSeesTrace checks the observer hook: it receives exactly the
// visits recorded in the result trace, in order, without altering the
// search.
func TestObserverSeesTrace(t *testing.T) {
	space := makeSpace(4)
	obj := evalFunc(func(ctx context.Context, p decomp.Point) (float64, error) {
		return float64(p.Count()), nil
	})
	var seen []Visit
	opts := Options{Seed: 3, MaxEvaluations: 10, Observer: func(v Visit) { seen = append(seen, v) }}
	res, err := TabuSearch(context.Background(), obj, space.FullPoint(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(res.Trace) {
		t.Fatalf("observer saw %d visits, trace has %d", len(seen), len(res.Trace))
	}
	for i := range seen {
		if seen[i].Index != res.Trace[i].Index || seen[i].Value != res.Trace[i].Value ||
			seen[i].Accepted != res.Trace[i].Accepted || seen[i].Improved != res.Trace[i].Improved {
			t.Fatalf("visit %d diverges: %+v vs %+v", i, seen[i], res.Trace[i])
		}
	}

	// The same search without an observer behaves identically.
	opts.Observer = nil
	again, err := TabuSearch(context.Background(), obj, space.FullPoint(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if again.BestValue != res.BestValue || again.Evaluations != res.Evaluations {
		t.Fatalf("observer changed the search: %+v vs %+v", again, res)
	}
}

// TestTabuListsAccounting walks the L1/L2 bookkeeping over a tiny space:
// checked points with unchecked neighbourhoods sit in L2, move to L1 as
// their neighbourhoods fill up, and getNewCenter reads L2 without mutating
// either list.
func TestTabuListsAccounting(t *testing.T) {
	space := makeSpace(2)
	full := space.FullPoint()                  // {1,2}
	p1, _ := space.PointFromVars([]cnf.Var{1}) // {1}
	p2, _ := space.PointFromVars([]cnf.Var{2}) // {2}

	values := map[string]valued{}
	tl := newTabuLists(1)

	// The start point has both radius-1 neighbours unchecked: L2.
	values[full.Key()] = valued{value: 40}
	tl.addChecked(full, 40, values)
	if tl.L1Size() != 0 || tl.L2Size() != 1 {
		t.Fatalf("after start: L1=%d L2=%d, want 0/1", tl.L1Size(), tl.L2Size())
	}

	// {1} goes straight to L1 — its other neighbour, {}, is never visited,
	// so nothing is left to check around it — and leaves full's
	// neighbourhood one short of complete.
	values[p1.Key()] = valued{value: 10}
	tl.addChecked(p1, 10, values)
	if tl.L1Size() != 1 || tl.L2Size() != 1 {
		t.Fatalf("after {1}: L1=%d L2=%d, want 1/1", tl.L1Size(), tl.L2Size())
	}

	// getNewCenter picks the only L2 point and mutates nothing.
	obj := evalFunc(func(ctx context.Context, p decomp.Point) (float64, error) { return 0, nil })
	next, ok := tl.getNewCenter(obj)
	if !ok || next.Key() != full.Key() {
		t.Fatalf("getNewCenter = %v, %v; want {1,2}", next, ok)
	}
	if tl.L1Size() != 1 || tl.L2Size() != 1 {
		t.Fatalf("getNewCenter mutated the lists: L1=%d L2=%d", tl.L1Size(), tl.L2Size())
	}

	// {2} completes full's neighbourhood: every non-empty point ends in L1
	// and there is no centre left to move to.
	values[p2.Key()] = valued{value: 20}
	tl.addChecked(p2, 20, values)
	if tl.L1Size() != 3 || tl.L2Size() != 0 {
		t.Fatalf("after {2}: L1=%d L2=%d, want 3/0", tl.L1Size(), tl.L2Size())
	}
	if _, ok := tl.getNewCenter(obj); ok {
		t.Fatal("getNewCenter found a centre in an empty L2")
	}
}
