package portfolio

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/cnfgen"
	"github.com/paper-repro/pdsat-go/internal/encoder"
	"github.com/paper-repro/pdsat-go/internal/solver"
)

func TestDefaultMembersAreDistinct(t *testing.T) {
	members := DefaultMembers()
	if len(members) < 4 {
		t.Fatalf("expected several members, got %d", len(members))
	}
	seen := map[string]bool{}
	for _, m := range members {
		if m.Name == "" {
			t.Fatal("member without a name")
		}
		if seen[m.Name] {
			t.Fatalf("duplicate member %q", m.Name)
		}
		seen[m.Name] = true
	}
}

func TestSolveSatInstance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f, err := cnfgen.Random3SAT(rng, 60, 3.0) // under-constrained: SAT
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(context.Background(), f, Options{CostMetric: solver.CostPropagations})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != solver.Sat {
		t.Fatalf("expected SAT, got %v", res.Status)
	}
	if res.Winner == "" || res.Model == nil {
		t.Fatal("winner and model must be set")
	}
	if !f.IsSatisfiedBy(res.Model) {
		t.Fatal("winner's model does not satisfy the formula")
	}
	if res.TotalCost <= 0 || res.WallTime <= 0 {
		t.Fatalf("degenerate accounting: %+v", res)
	}
	if len(res.MemberStats) != len(DefaultMembers()) {
		t.Fatalf("expected stats for all members, got %d", len(res.MemberStats))
	}
}

func TestSolveUnsatInstance(t *testing.T) {
	f, err := cnfgen.Pigeonhole(6, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(context.Background(), f, Options{Workers: 2, CostMetric: solver.CostConflicts})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != solver.Unsat {
		t.Fatalf("expected UNSAT, got %v", res.Status)
	}
}

func TestSolveValidation(t *testing.T) {
	if _, err := Solve(context.Background(), nil, Options{}); err == nil {
		t.Fatal("expected error for nil formula")
	}
	f := cnf.New(1)
	f.AddClauseLits(1)
	dup := Options{Members: []Member{{Name: "a"}, {Name: "a"}}}
	if _, err := Solve(context.Background(), f, dup); err == nil {
		t.Fatal("expected error for duplicate member names")
	}
}

func TestSolveWithCustomMembers(t *testing.T) {
	f := cnf.New(3)
	f.AddClauseLits(1, 2)
	f.AddClauseLits(-1, 3)
	positive := solver.DefaultOptions()
	positive.DefaultPhase = true
	members := []Member{
		{Name: "default", Options: solver.DefaultOptions()},
		{Name: "positive-phase", Options: positive},
	}
	res, err := Solve(context.Background(), f, Options{Members: members})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != solver.Sat {
		t.Fatalf("expected SAT, got %v", res.Status)
	}
	if _, ok := res.MemberStats[res.Winner]; !ok || len(res.MemberStats) != len(members) {
		t.Fatalf("winner %q and stats of %d members; want one of the custom members, stats of each", res.Winner, len(res.MemberStats))
	}
}

func TestSolveBudgetExhaustion(t *testing.T) {
	f, err := cnfgen.Pigeonhole(9, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(context.Background(), f, Options{
		MemberBudget: solver.Budget{MaxConflicts: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != solver.Unknown || res.Winner != "" {
		t.Fatalf("expected no winner under a tiny budget, got %v by %q", res.Status, res.Winner)
	}
}

func TestSolveContextCancellation(t *testing.T) {
	f, err := cnfgen.Pigeonhole(10, 9)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	res, err := Solve(ctx, f, Options{})
	if err == nil && res.Status != solver.Unknown {
		// Finishing that fast is acceptable, just unlikely.
		return
	}
	if res == nil {
		t.Fatal("result should be returned even on cancellation")
	}
}

func TestPortfolioOnCryptanalysisInstance(t *testing.T) {
	// A weakened A5/1 instance is satisfiable (the secret exists); the
	// portfolio should find a model that reproduces the keystream.
	inst, err := encoder.NewInstance(encoder.A51(), encoder.Config{
		KeystreamLen: 40, KnownSuffix: 50, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(context.Background(), inst.CNF, Options{Workers: 2, CostMetric: solver.CostPropagations})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != solver.Sat {
		t.Fatalf("expected SAT, got %v", res.Status)
	}
	ok, err := inst.CheckRecoveredState(encoder.A51(), res.Model)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("portfolio model does not reproduce the keystream")
	}
}
