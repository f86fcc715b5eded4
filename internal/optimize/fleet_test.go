package optimize

import (
	"context"
	"math"
	"reflect"
	"testing"

	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/decomp"
)

func TestSubSeedDeterministicAndDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 64; i++ {
		s := SubSeed(7, i)
		if s != SubSeed(7, i) {
			t.Fatalf("SubSeed(7,%d) is not deterministic", i)
		}
		if seen[s] {
			t.Fatalf("SubSeed(7,%d)=%d collides with an earlier stream", i, s)
		}
		seen[s] = true
	}
	if SubSeed(7, 0) == SubSeed(8, 0) {
		t.Fatal("sub-seeds of neighbouring roots collide")
	}
}

// visitsEqual compares two traces by point key, value and flags.
func visitsEqual(a, b []Visit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Point.Key() != b[i].Point.Key() || a[i].Value != b[i].Value ||
			a[i].Accepted != b[i].Accepted || a[i].Improved != b[i].Improved ||
			a[i].Pruned != b[i].Pruned {
			return false
		}
	}
	return true
}

// TestFleetOfOneBitIdentical pins the fleet regression guarantee at the
// optimizer level: a fleet of one member reproduces the direct search call
// exactly — best point, best value, evaluation count, the whole trace and
// the stop reason — for both metaheuristics.
func TestFleetOfOneBitIdentical(t *testing.T) {
	space := makeSpace(8)
	target := []cnf.Var{2, 3, 5}
	for _, c := range []struct {
		method string
		search func(context.Context, Objective, decomp.Point, Options) (*Result, error)
	}{{"tabu", TabuSearch}, {"sa", SimulatedAnnealing}} {
		method := c.method
		opts := Options{Seed: 11, MaxEvaluations: 40}
		direct, err := c.search(context.Background(), newCountingObjective(target), space.FullPoint(), opts)
		if err != nil {
			t.Fatal(err)
		}
		fr, err := RunFleet(context.Background(), []FleetMember{{
			Search:    c.search,
			Objective: newCountingObjective(target),
			Start:     space.FullPoint(),
			Opts:      opts,
		}}, FleetOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got := fr.Members[0].Result
		if got.BestPoint.Key() != direct.BestPoint.Key() || got.BestValue != direct.BestValue {
			t.Fatalf("%s fleet of one best differs: %v/%v vs %v/%v", method,
				got.BestPoint.Key(), got.BestValue, direct.BestPoint.Key(), direct.BestValue)
		}
		if got.Evaluations != direct.Evaluations || got.Stop != direct.Stop {
			t.Fatalf("%s fleet of one run shape differs: %d/%s vs %d/%s", method,
				got.Evaluations, got.Stop, direct.Evaluations, direct.Stop)
		}
		if !visitsEqual(got.Trace, direct.Trace) {
			t.Fatalf("%s fleet of one trace differs", method)
		}
		if fr.Best != 0 || fr.BestValue != direct.BestValue {
			t.Fatalf("%s fleet result does not report member 0 as winner", method)
		}
	}
}

// TestFleetDeterministicAcrossRuns races a mixed fleet with fixed sub-seeds
// twice and checks every member reproduces its best point and value exactly
// — the interleaving of goroutines must not leak into member decisions when
// the objective has no cross-member coupling.
func TestFleetDeterministicAcrossRuns(t *testing.T) {
	space := makeSpace(10)
	target := []cnf.Var{1, 4, 6, 9}
	run := func() *FleetResult {
		members := make([]FleetMember, 4)
		for i := range members {
			search := TabuSearch
			if i >= 2 {
				search = SimulatedAnnealing
			}
			members[i] = FleetMember{
				Search:    search,
				Objective: newCountingObjective(target),
				Start:     space.FullPoint(),
				Opts:      Options{Seed: SubSeed(5, 3*i+1), MaxEvaluations: 25},
			}
		}
		fr, err := RunFleet(context.Background(), members, FleetOptions{KeepRacing: true})
		if err != nil {
			t.Fatal(err)
		}
		return fr
	}
	a, b := run(), run()
	for i := range a.Members {
		ra, rb := a.Members[i].Result, b.Members[i].Result
		if ra.BestPoint.Key() != rb.BestPoint.Key() || ra.BestValue != rb.BestValue ||
			ra.Evaluations != rb.Evaluations {
			t.Fatalf("member %d differs across runs: %v/%v/%d vs %v/%v/%d", i,
				ra.BestPoint.Key(), ra.BestValue, ra.Evaluations,
				rb.BestPoint.Key(), rb.BestValue, rb.Evaluations)
		}
		if !visitsEqual(ra.Trace, rb.Trace) {
			t.Fatalf("member %d trace differs across runs", i)
		}
	}
	if a.Best != b.Best || a.BestValue != b.BestValue {
		t.Fatalf("winner differs across runs: %d/%v vs %d/%v", a.Best, a.BestValue, b.Best, b.BestValue)
	}
}

// TestFleetSharedIncumbent checks the coupling: the incumbent ends at the
// minimum over member bests, improvements arrive in strictly decreasing
// order, and Snapshot names a member that offered the final value.
func TestFleetSharedIncumbent(t *testing.T) {
	space := makeSpace(8)
	target := []cnf.Var{1, 2}
	inc := NewIncumbent()
	var improvements []float64
	inc.OnImproved = func(member int, p decomp.Point, v float64) {
		improvements = append(improvements, v)
	}
	members := []FleetMember{
		{Search: TabuSearch, Objective: newCountingObjective(target), Start: space.FullPoint(),
			Opts: Options{Seed: 3, MaxEvaluations: 60}},
		{Search: SimulatedAnnealing, Objective: newCountingObjective(target), Start: space.FullPoint(),
			Opts: Options{Seed: 4, MaxEvaluations: 60}},
	}
	fr, err := RunFleet(context.Background(), members, FleetOptions{Shared: inc, KeepRacing: true})
	if err != nil {
		t.Fatal(err)
	}
	min := math.Inf(1)
	for _, m := range fr.Members {
		if m.Result.BestValue < min {
			min = m.Result.BestValue
		}
	}
	if got := inc.Best(); got != min {
		t.Fatalf("incumbent ended at %v, want the fleet minimum %v", got, min)
	}
	if len(improvements) == 0 {
		t.Fatal("no incumbent improvements were reported")
	}
	for i := 1; i < len(improvements); i++ {
		if improvements[i] >= improvements[i-1] {
			t.Fatalf("improvements not strictly decreasing: %v", improvements)
		}
	}
	p, v, member := inc.Snapshot()
	if v != min || member < 0 || member >= len(members) {
		t.Fatalf("snapshot (%v, member %d) does not match the fleet minimum %v", v, member, min)
	}
	if p.Key() != fr.BestPoint.Key() {
		t.Fatalf("snapshot point %v differs from fleet best %v", p.Key(), fr.BestPoint.Key())
	}
}

// TestFleetTargetStop checks the fleet-wide early stop: a reachable target
// ends the race with the hitting member reporting StopTarget, and the fleet
// best at or below the target.
func TestFleetTargetStop(t *testing.T) {
	space := makeSpace(8)
	target := []cnf.Var{2, 3, 5}
	members := make([]FleetMember, 2)
	for i := range members {
		members[i] = FleetMember{
			Search:    TabuSearch,
			Objective: newCountingObjective(target),
			Start:     space.FullPoint(),
			// F = 1 + |χ Δ target|; the full start point of an 8-var space
			// scores 1+5=6, so a target of 5 is hit on the first improvement.
			Opts: Options{Seed: int64(i + 1), TargetValue: 5},
		}
	}
	fr, err := RunFleet(context.Background(), members, FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fr.BestValue > 5 {
		t.Fatalf("fleet best %v above the target", fr.BestValue)
	}
	hit := false
	for _, m := range fr.Members {
		if m.Result.Stop == StopTarget {
			hit = true
		}
	}
	if !hit {
		t.Fatal("no member reported StopTarget")
	}
}

// TestFleetValidation covers the orchestration error paths.
func TestFleetValidation(t *testing.T) {
	space := makeSpace(4)
	obj := newCountingObjective([]cnf.Var{1})
	if _, err := RunFleet(context.Background(), nil, FleetOptions{}); err == nil {
		t.Fatal("empty fleet accepted")
	}
	if _, err := RunFleet(context.Background(), []FleetMember{
		{Objective: obj, Start: space.FullPoint()},
	}, FleetOptions{}); err == nil {
		t.Fatal("member without a search function accepted")
	}
	if _, err := RunFleet(context.Background(), []FleetMember{
		{Search: TabuSearch, Start: space.FullPoint()},
	}, FleetOptions{}); err == nil {
		t.Fatal("nil objective accepted")
	}
	if _, err := RunFleet(context.Background(), []FleetMember{
		{Search: TabuSearch, Objective: obj, Start: space.FullPoint(), Opts: Options{Radius: -1}},
	}, FleetOptions{}); err == nil {
		t.Fatal("invalid member options accepted")
	}
	if _, err := RunFleet(context.Background(), []FleetMember{
		{Search: TabuSearch, Objective: obj, Start: space.FullPoint(), Opts: Options{TargetValue: -1}},
	}, FleetOptions{}); err == nil {
		t.Fatal("negative target accepted")
	}
}

// TestIncumbentOfferSemantics pins the monotone CAS-min contract.
func TestIncumbentOfferSemantics(t *testing.T) {
	space := makeSpace(3)
	p := space.FullPoint()
	in := NewIncumbent()
	if !math.IsInf(in.Best(), 1) {
		t.Fatal("fresh incumbent is not +Inf")
	}
	view := in.MemberView(1)
	if !view.Offer(p, 10) || view.Offer(p, 10) || view.Offer(p, 11) {
		t.Fatal("offer accepted a non-improvement")
	}
	if view.Offer(p, math.NaN()) {
		t.Fatal("offer accepted NaN")
	}
	if !view.Offer(p, 3) || in.Best() != 3 {
		t.Fatalf("incumbent did not descend to 3 (got %v)", in.Best())
	}
	_, v, member := in.Snapshot()
	if v != 3 || member != 1 {
		t.Fatalf("snapshot (%v, %d) after member-1 offers", v, member)
	}
	if !reflect.DeepEqual(in.MemberView(2).Best(), 3.0) {
		t.Fatal("member views disagree on Best")
	}
}
