package optimize

import (
	"context"
	"math"
	"reflect"
	"slices"
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

// TestSelfCoupledSearchBitIdentical: a search coupled to a fresh incumbent
// that nobody else offers to — a race of one, which is how every plain search
// job runs — is bit-identical to the uncoupled search.  On a pruning
// objective the incumbent decides which visits are pruned and what they
// record, so the result, the trace values of pruned visits included, and
// every neighbourhood pass must match.
func TestSelfCoupledSearchBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name   string
		search func(context.Context, Objective, decomp.Point, Options) (*Result, error)
		target []cnf.Var
		opts   Options
	}{
		{"tabu", TabuSearch, []cnf.Var{2, 5}, Options{Seed: 11, MaxEvaluations: 23}},
		{"tabu-unbounded", TabuSearch, []cnf.Var{2, 5}, Options{Seed: 11}},
		{"sa", SimulatedAnnealing, []cnf.Var{1, 4, 6}, Options{Seed: 13, MaxEvaluations: 12, InitialTemperature: 0.5, CoolingFactor: 0.97}},
		{"sa-unbounded", SimulatedAnnealing, []cnf.Var{1, 4, 6}, Options{Seed: 13, InitialTemperature: 0.5, CoolingFactor: 0.97}},
	} {
		run := func(shared SharedIncumbent) (*Result, []Neighborhood) {
			var passes []Neighborhood
			opts := tc.opts
			opts.Shared = shared
			opts.NeighborhoodObserver = func(nb Neighborhood) { passes = append(passes, nb) }
			res, err := tc.search(context.Background(), pruningObjective{newCountingObjective(tc.target)}, makeSpace(7).FullPoint(), opts)
			if err != nil {
				t.Fatal(err)
			}
			return res, passes
		}
		alone, alonePasses := run(nil)
		coupled, coupledPasses := run(NewIncumbent().MemberView(0))
		resultsEqual(t, coupled, alone)
		if len(coupledPasses) != len(alonePasses) {
			t.Fatalf("%s: %d passes coupled, %d alone", tc.name, len(coupledPasses), len(alonePasses))
		}
		for i, nb := range coupledPasses {
			want := alonePasses[i]
			if nb.Center.Key() != want.Center.Key() || nb.Radius != want.Radius || nb.Candidates != want.Candidates ||
				nb.Evaluated != want.Evaluated || nb.Pruned != want.Pruned || nb.Cancelled != want.Cancelled ||
				nb.Improved != want.Improved || nb.BestValue != want.BestValue {
				t.Fatalf("%s: pass %d coupled %+v, alone %+v", tc.name, i, nb, want)
			}
		}
		if !slices.ContainsFunc(alone.Trace, func(v Visit) bool { return v.Pruned }) {
			t.Fatalf("%s: no visit was pruned, so the incumbent decided nothing", tc.name)
		}
	}
}

// TestIncumbentOfferSemantics pins the monotone CAS-min contract.
func TestIncumbentOfferSemantics(t *testing.T) {
	space := makeSpace(3)
	p := space.FullPoint()
	in := NewIncumbent()
	var improvedBy []int
	in.OnImproved = func(member int, _ decomp.Point, _ float64) { improvedBy = append(improvedBy, member) }
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
	if !reflect.DeepEqual(improvedBy, []int{1, 1}) {
		t.Fatalf("OnImproved saw members %v, want the two improvements of member 1", improvedBy)
	}
	if !reflect.DeepEqual(in.MemberView(2).Best(), 3.0) {
		t.Fatal("member views disagree on Best")
	}
}
