package cnfgen

import (
	"math/rand"
	"testing"

	"github.com/paper-repro/pdsat-go/internal/solver"
)

func TestRandomKSATParameters(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f, err := RandomKSAT(rng, 3, 20, 50)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumClauses() != 50 {
		t.Fatalf("clauses = %d", f.NumClauses())
	}
	for _, c := range f.Clauses {
		if len(c) != 3 {
			t.Fatalf("clause width %d", len(c))
		}
	}
	for _, bad := range [][3]int{{0, 5, 5}, {3, 0, 5}, {3, 5, -1}} {
		if _, err := RandomKSAT(rng, bad[0], bad[1], bad[2]); err == nil {
			t.Fatalf("expected error for %v", bad)
		}
	}
}

func TestRandom3SATRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f, err := Random3SAT(rng, 50, 4.0)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumClauses() != 200 {
		t.Fatalf("clauses = %d, want 200", f.NumClauses())
	}
}

func TestPigeonholeSatisfiability(t *testing.T) {
	sat, err := Pigeonhole(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res := solver.NewDefault(sat).Solve(); res.Status != solver.Sat {
		t.Fatalf("PHP(4,4) should be SAT, got %v", res.Status)
	}
	unsat, err := Pigeonhole(5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res := solver.NewDefault(unsat).Solve(); res.Status != solver.Unsat {
		t.Fatalf("PHP(5,4) should be UNSAT, got %v", res.Status)
	}
	if _, err := Pigeonhole(0, 3); err == nil {
		t.Fatal("expected error for zero pigeons")
	}
}
