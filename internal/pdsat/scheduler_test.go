package pdsat

import (
	"context"
	"math"
	"testing"
	"time"

	"github.com/paper-repro/pdsat-go/internal/decomp"
	"github.com/paper-repro/pdsat-go/internal/eval"
	"github.com/paper-repro/pdsat-go/internal/optimize"
)

// The three width-1 gates pin the search loops on the real pipeline to
// recordings (testdata/estimator_goldens.json) made by the sequential SA/tabu
// loops at the commit before their deletion: a width-1 search walks its
// candidates one at a time (the tabu search in its pre-drawn visit order) and
// must reproduce the recorded trace, conflict activities and subproblem counts
// bit for bit.  Width 0 is width 1.

// TestSchedulerWidthOneBitIdenticalTabuZeroPolicy: the fixed-seed Bivium
// tabu search with every quantity deterministic (the search_zero entry).
func TestSchedulerWidthOneBitIdenticalTabuZeroPolicy(t *testing.T) {
	want := loadEstimatorGoldens(t).SearchZero
	for _, width := range []int{0, 1} {
		if got, _ := goldenTabuZero(t, width); got != want {
			t.Errorf("width %d diverges from the recording:\n got %+v\nwant %+v", width, got, want)
		}
	}
}

// TestSchedulerWidthOneBitIdenticalTabuDefaultPolicy repeats the anchor
// under the default policy (pruning + staging): the one-at-a-time path must
// thread the improving incumbent into every evaluation exactly like the
// sequential loop did.
func TestSchedulerWidthOneBitIdenticalTabuDefaultPolicy(t *testing.T) {
	want := loadEstimatorGoldens(t).SearchDefaultTrace
	for _, width := range []int{0, 1} {
		if got := goldenTabuDefault(t, width); got != want {
			t.Errorf("width %d diverges from the recording:\n got %+v\nwant %+v", width, got, want)
		}
	}
}

// TestSchedulerWidthOneBitIdenticalSA is the anchor for the simulated
// annealing: it evaluates one drawn candidate at a time and reproduces the
// recorded pick/evaluate/accept/cool interleaving — including the acceptance RNG
// draws — exactly.
func TestSchedulerWidthOneBitIdenticalSA(t *testing.T) {
	want := loadEstimatorGoldens(t).SearchSAZero
	for _, width := range []int{0, 1} {
		if got := goldenSAZero(t, width); got != want {
			t.Errorf("width %d diverges from the recording:\n got %+v\nwant %+v", width, got, want)
		}
	}
}

// TestSampleLedgerBalances: the accounting satellite.  Every evaluation
// commits its sample size to the planned ledger; each planned sample is
// then solved, aborted mid-solve, or skipped before dispatch — the three
// buckets must sum back exactly, with pruning and staging too.
func TestSampleLedgerBalances(t *testing.T) {
	inst := weakBivium(t, 167, 60, 21)
	for _, tc := range []struct {
		name string
		pol  eval.Policy
	}{
		{"sequential zero policy", eval.Policy{}},
		{"sequential default policy", eval.DefaultPolicy()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRunner(inst.CNF, evalTestConfig(tc.pol))
			space := unknownSpace(inst)
			_, err := optimize.TabuSearch(context.Background(), objectiveOf(r), space.FullPoint(),
				optimize.Options{Seed: 5, MaxEvaluations: 15})
			if err != nil {
				t.Fatal(err)
			}
			planned, solved := r.SamplesPlanned(), r.SubproblemsSolved()
			aborted, skipped := r.SubproblemsAborted(), r.SamplesSkipped()
			if planned == 0 {
				t.Fatal("no samples planned")
			}
			if planned != solved+aborted+skipped {
				t.Fatalf("ledger out of balance: planned %d != solved %d + aborted %d + skipped %d",
					planned, solved, aborted, skipped)
			}
			if tc.pol.Prune && aborted+skipped == 0 {
				t.Fatal("default policy saved no subproblems on this instance")
			}
		})
	}
}

// TestSchedulerScopeLedgerBalances checks the same invariant on an
// isolated scope (the fleet members' evaluation context) driven through
// the slot API directly.
func TestSchedulerScopeLedgerBalances(t *testing.T) {
	inst := weakBivium(t, 167, 60, 21)
	r := NewRunner(inst.CNF, evalTestConfig(eval.Policy{Prune: true}))
	sc := r.NewScope(99)
	space := unknownSpace(inst)
	p := space.FullPoint()

	base := sc.ReserveEvalSlots(3)
	if _, err := sc.EvaluateSlotObserved(context.Background(), p, eval.Policy{}, math.Inf(1), base, nil); err != nil {
		t.Fatal(err)
	}
	// A tight incumbent forces pruning: part of the sample is aborted or
	// skipped, and the ledger must still balance.
	if ev, err := sc.EvaluateSlotObserved(context.Background(), p.Flip(0), eval.Policy{Prune: true}, 1, base+1, nil); err != nil {
		t.Fatal(err)
	} else if !ev.Pruned {
		t.Fatalf("evaluation against incumbent 1 not pruned: %+v", ev)
	}
	planned, solved := sc.SamplesPlanned(), sc.SubproblemsSolved()
	aborted, skipped := sc.SubproblemsAborted(), sc.SamplesSkipped()
	if planned != solved+aborted+skipped {
		t.Fatalf("scope ledger out of balance: planned %d != solved %d + aborted %d + skipped %d",
			planned, solved, aborted, skipped)
	}
	if planned != 2*24 {
		t.Fatalf("planned %d samples, want 2 evaluations x 24", planned)
	}
	// Slot 3 was reserved but never used (a burned slot): reservation alone
	// must not plan samples.
	if r.SamplesPlanned() != planned {
		t.Fatalf("runner ledger %d diverged from its only scope %d", r.SamplesPlanned(), planned)
	}
}

// TestSchedulerCancellationMidNeighborhood: cancel the context while a
// neighbourhood is being evaluated, on the real transport, and require a
// graceful StopContext with a balanced ledger.
func TestSchedulerCancellationMidNeighborhood(t *testing.T) {
	inst := weakBivium(t, 167, 60, 21)
	space := unknownSpace(inst)
	r := NewRunner(inst.CNF, evalTestConfig(eval.DefaultPolicy()))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	res, err := optimize.TabuSearch(ctx, objectiveOf(r), space.FullPoint(),
		optimize.Options{Seed: 5})
	cancel()
	if err != nil {
		t.Fatalf("cancelled search returned a hard error: %v", err)
	}
	if res.Stop != optimize.StopContext {
		t.Fatalf("stop reason %q, want %q", res.Stop, optimize.StopContext)
	}
	planned, solved := r.SamplesPlanned(), r.SubproblemsSolved()
	aborted, skipped := r.SubproblemsAborted(), r.SamplesSkipped()
	if planned != solved+aborted+skipped {
		t.Fatalf("ledger out of balance after cancellation: planned %d != solved %d + aborted %d + skipped %d",
			planned, solved, aborted, skipped)
	}
}

// TestCancelledSearchReservesNoSlot: a search whose context is cancelled
// before it starts stops with StopContext before its start evaluation — the
// budget check a search makes before every fresh evaluation.  Nothing is
// evaluated, no slot is reserved and no sample is planned.
func TestCancelledSearchReservesNoSlot(t *testing.T) {
	inst := weakBivium(t, 167, 60, 21)
	space := unknownSpace(inst)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	searches := map[string]func(context.Context, optimize.Objective, decomp.Point, optimize.Options) (*optimize.Result, error){
		"tabu": optimize.TabuSearch,
		"sa":   optimize.SimulatedAnnealing,
	}
	for name, search := range searches {
		r := NewRunner(inst.CNF, evalTestConfig(eval.DefaultPolicy()))
		res, err := search(ctx, objectiveOf(r), space.FullPoint(), optimize.Options{Seed: 5})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Stop != optimize.StopContext || res.Evaluations != 0 || len(res.Trace) != 0 {
			t.Fatalf("%s: stop %q after %d evaluations, %d visits; want %q, 0, 0",
				name, res.Stop, res.Evaluations, len(res.Trace), optimize.StopContext)
		}
		if r.Evaluations() != 0 || r.SamplesPlanned() != 0 {
			t.Fatalf("%s: runner at %d evaluations, %d samples planned; want 0 and 0",
				name, r.Evaluations(), r.SamplesPlanned())
		}
	}
}

// TestSearchesNeverVisitTheEmptySet is the regression test for searches that
// walk down to a one-variable set.  On a root-solved Bivium instance every
// subproblem costs the same propagations, so F = c·2^d falls with every
// variable dropped and both searches descend to d = 1, whose radius-1
// neighbourhood contains the empty set.  It is not a decomposition: the
// searches must skip it and end with a normal stop reason instead of dying on the runner's "empty decomposition set", while
// an explicitly requested empty set stays an error.
func TestSearchesNeverVisitTheEmptySet(t *testing.T) {
	inst := weakBivium(t, 172, 60, 21) // 5 unknown variables: 31 non-empty sets
	space := unknownSpace(inst)
	searches := map[string]func(context.Context, optimize.Objective, decomp.Point, optimize.Options) (*optimize.Result, error){
		"tabu": optimize.TabuSearch,
		"sa":   optimize.SimulatedAnnealing,
	}
	for name, search := range searches {
		r := NewRunner(inst.CNF, evalTestConfig(eval.Policy{}))
		res, err := search(context.Background(), objectiveOf(r), space.FullPoint(), optimize.Options{Seed: 5})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Stop == "" {
			t.Fatalf("%s: no stop reason", name)
		}
		if res.BestPoint.Count() != 1 {
			t.Fatalf("%s: best set has %d variables, want the search to reach 1", name, res.BestPoint.Count())
		}
		for _, v := range res.Trace {
			if v.Point.Count() == 0 {
				t.Fatalf("%s: visit %d is the empty set", name, v.Index)
			}
		}
	}
	r := NewRunner(inst.CNF, evalTestConfig(eval.Policy{}))
	if _, err := r.EvaluatePoint(context.Background(), space.EmptyPoint()); err == nil {
		t.Fatal("the runner accepted an explicitly requested empty decomposition set")
	}
}
