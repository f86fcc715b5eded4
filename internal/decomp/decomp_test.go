package decomp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/solver"
)

func space(n int) *Space {
	vars := make([]cnf.Var, n)
	for i := range vars {
		vars[i] = cnf.Var(i + 1)
	}
	return NewSpace(vars)
}

func TestSpaceBasics(t *testing.T) {
	s := NewSpace([]cnf.Var{3, 1, 7, 3})
	if s.Size() != 3 {
		t.Fatalf("Size = %d, want 3 (duplicates removed)", s.Size())
	}
	if s.IndexOf(7) != 2 || s.IndexOf(99) != -1 {
		t.Fatal("IndexOf misbehaves")
	}
	if !s.Contains(1) || s.Contains(2) {
		t.Fatal("Contains misbehaves")
	}
}

func TestPointConstruction(t *testing.T) {
	s := space(5)
	full := s.FullPoint()
	if full.Count() != 5 || len(full.Vars()) != 5 {
		t.Fatal("FullPoint should select everything")
	}
	empty := s.EmptyPoint()
	if empty.Count() != 0 || len(empty.Vars()) != 0 {
		t.Fatal("EmptyPoint should select nothing")
	}
	p, err := s.PointFromVars([]cnf.Var{2, 4, 2})
	if err != nil {
		t.Fatal(err)
	}
	if p.Count() != 2 || !p.Has(2) || !p.Has(4) || p.Has(3) {
		t.Fatalf("PointFromVars = %v", p.Vars())
	}
	if _, err := s.PointFromVars([]cnf.Var{77}); err == nil {
		t.Fatal("expected error for out-of-space variable")
	}
}

func TestPointFlipCloneEqual(t *testing.T) {
	s := space(4)
	p := s.EmptyPoint()
	q := p.Flip(2)
	if p.Count() != 0 {
		t.Fatal("Flip must not modify the receiver")
	}
	if q.Count() != 1 || !q.Bit(2) {
		t.Fatal("Flip failed to set the bit")
	}
	r := q.Flip(2)
	if r.Count() != 0 {
		t.Fatal("Flip failed to clear the bit")
	}
	if !p.Equal(r) || p.Equal(q) {
		t.Fatal("Equal misbehaves")
	}
	c := q.Clone()
	if !c.Equal(q) {
		t.Fatal("Clone should be equal")
	}
	if p.Key() == q.Key() || q.Key() != c.Key() {
		t.Fatal("Key misbehaves")
	}
	if q.String() == "" || p.Size() != 4 {
		t.Fatal("String/Size misbehave")
	}
}

func TestHammingDistanceAndNeighbors(t *testing.T) {
	s := space(6)
	p := s.EmptyPoint().Flip(0).Flip(3)
	q := p.Flip(1)
	if p.HammingDistance(q) != 1 || p.HammingDistance(p) != 0 {
		t.Fatal("HammingDistance misbehaves")
	}
	n1 := p.Neighbors(1)
	if len(n1) != 6 {
		t.Fatalf("radius-1 neighbourhood size = %d, want 6", len(n1))
	}
	for _, n := range n1 {
		if p.HammingDistance(n) != 1 {
			t.Fatal("radius-1 neighbour at wrong distance")
		}
	}
	n2 := p.Neighbors(2)
	want2 := 6 + 6*5/2
	if len(n2) != want2 {
		t.Fatalf("radius-2 neighbourhood size = %d, want %d", len(n2), want2)
	}
	if len(p.Neighbors(0)) != 0 {
		t.Fatal("radius-0 neighbourhood should be empty")
	}
}

// TestNeighborsRadiusOneIsTheGenericPass: the radius-1 neighbourhood skips
// the breadth-first pass and its map of keys, and must list the same points
// in the same order; at radius 2 Neighbors is that pass.
func TestNeighborsRadiusOneIsTheGenericPass(t *testing.T) {
	s := space(9)
	for _, p := range []Point{s.EmptyPoint(), s.FullPoint(), s.EmptyPoint().Flip(0).Flip(4).Flip(8)} {
		for radius := 1; radius <= 2; radius++ {
			got, want := p.Neighbors(radius), p.neighborsByDistance(radius)
			if len(got) != len(want) {
				t.Fatalf("radius %d: %d neighbours, the generic pass has %d", radius, len(got), len(want))
			}
			for i := range got {
				if got[i].Key() != want[i].Key() || got[i].Count() != want[i].Count() {
					t.Fatalf("radius %d: neighbour %d is %s, the generic pass has %s", radius, i, got[i].Key(), want[i].Key())
				}
			}
		}
	}
}

func TestSortedVars(t *testing.T) {
	s := NewSpace([]cnf.Var{9, 2, 5})
	p := s.FullPoint()
	sorted := p.SortedVars()
	if sorted[0] != 2 || sorted[1] != 5 || sorted[2] != 9 {
		t.Fatalf("SortedVars = %v", sorted)
	}
}

func TestRandomPoint(t *testing.T) {
	s := space(50)
	rng := rand.New(rand.NewSource(1))
	p := s.RandomPoint(rng, 0.5)
	if p.Count() == 0 || p.Count() == 50 {
		t.Fatalf("suspicious random point with %d bits", p.Count())
	}
	if s.RandomPoint(rng, 0).Count() != 0 {
		t.Fatal("probability 0 should select nothing")
	}
	if s.RandomPoint(rng, 1).Count() != 50 {
		t.Fatal("probability 1 should select everything")
	}
}

func TestFamilyBasics(t *testing.T) {
	f := cnf.New(4)
	f.AddClauseLits(1, 2)
	f.AddClauseLits(-3, 4)
	fam := NewFamily(f, []cnf.Var{1, 3})
	if fam.Dimension() != 2 {
		t.Fatal("Dimension")
	}
	if fam.SizeUint() != 4 {
		t.Fatal("SizeUint")
	}
	if fam.Size() != 4 {
		t.Fatal("Size")
	}
	if len(fam.Vars()) != 2 || fam.Formula() != f {
		t.Fatal("Vars/Formula")
	}
	// Index 0b10: var 1 -> false, var 3 -> true.
	as := fam.AssumptionsFor(2)
	if as[0] != cnf.Lit(-1) || as[1] != cnf.Lit(3) {
		t.Fatalf("AssumptionsFor(2) = %v", as)
	}
	asb, err := fam.AssumptionsForBits([]bool{true, false})
	if err != nil {
		t.Fatal(err)
	}
	if asb[0] != cnf.Lit(1) || asb[1] != cnf.Lit(-3) {
		t.Fatalf("AssumptionsForBits = %v", asb)
	}
	if _, err := fam.AssumptionsForBits([]bool{true}); err == nil {
		t.Fatal("expected length-mismatch error")
	}
}

func TestFamilyRandomAssignment(t *testing.T) {
	f := cnf.New(8)
	fam := NewFamily(f, []cnf.Var{1, 2, 3, 4, 5, 6, 7, 8})
	rng := rand.New(rand.NewSource(3))
	seen := map[string]bool{}
	for i := 0; i < 50; i++ {
		alpha := fam.RandomAssignment(rng)
		if len(alpha) != 8 {
			t.Fatal("wrong assignment length")
		}
		key := ""
		for _, b := range alpha {
			if b {
				key += "1"
			} else {
				key += "0"
			}
		}
		seen[key] = true
	}
	if len(seen) < 10 {
		t.Fatalf("random assignments look degenerate: %d distinct of 50", len(seen))
	}
}

func TestFamilyOfPoint(t *testing.T) {
	f := cnf.New(5)
	s := space(5)
	p, _ := s.PointFromVars([]cnf.Var{2, 5})
	fam := FamilyOf(f, p)
	if fam.Dimension() != 2 {
		t.Fatal("FamilyOf dimension")
	}
	vars := fam.Vars()
	if vars[0] != 2 || vars[1] != 5 {
		t.Fatalf("FamilyOf vars = %v", vars)
	}
}

func TestFamilySizeLarge(t *testing.T) {
	f := cnf.New(100)
	vars := make([]cnf.Var, 80)
	for i := range vars {
		vars[i] = cnf.Var(i + 1)
	}
	fam := NewFamily(f, vars)
	if fam.Size() != math.Exp2(80) {
		t.Fatal("Size should handle d=80")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SizeUint should panic for d>=63")
		}
	}()
	fam.SizeUint()
}

// partitioningError solves every member of fam as a worker does — its
// AssumptionsInto vector on one solver built from C, Reset between members —
// and checks the defining properties of a partitioning (Section 2): C is
// satisfiable exactly when some member is (C's answer from the DPLL oracle),
// and every satisfiable member's model is a model of C that agrees with the
// member's minterm.  It returns the first violation, or nil.
func partitioningError(fam *Family) error {
	c := fam.Formula()
	answer := solver.NewDPLL(c).Solve().Status
	s := solver.NewDefault(c)
	vars := fam.Vars()
	alpha := make([]cnf.Lit, len(vars))
	anySat := false
	for idx := uint64(0); idx < fam.SizeUint(); idx++ {
		alpha = fam.AssumptionsInto(alpha, idx)
		s.Reset()
		res := s.SolveWithAssumptions(alpha)
		switch res.Status {
		case solver.Unsat:
			continue
		case solver.Sat:
		default:
			return fmt.Errorf("member %d: status %v without a budget", idx, res.Status)
		}
		anySat = true
		if !c.IsSatisfiedBy(res.Model) {
			return fmt.Errorf("member %d: the model is not a model of C", idx)
		}
		for i, v := range vars {
			want := cnf.False
			if idx&(1<<uint(i)) != 0 {
				want = cnf.True
			}
			if got := res.Model.Value(v); got != want {
				return fmt.Errorf("member %d: the model sets variable %d %v, its minterm %v", idx, v, got, want)
			}
		}
	}
	if anySat != (answer == solver.Sat) {
		return fmt.Errorf("DPLL finds C %v, but a satisfiable member found: %v", answer, anySat)
	}
	return nil
}

func TestCheckPartitioningSatisfiable(t *testing.T) {
	f := cnf.New(4)
	f.AddClauseLits(1, 2, 3)
	f.AddClauseLits(-1, 4)
	f.AddClauseLits(-2, -4)
	if err := partitioningError(NewFamily(f, []cnf.Var{1, 2})); err != nil {
		t.Fatalf("partitioning check failed: %v", err)
	}
}

func TestCheckPartitioningUnsatisfiable(t *testing.T) {
	f := cnf.New(3)
	f.AddClauseLits(1)
	f.AddClauseLits(-1)
	if err := partitioningError(NewFamily(f, []cnf.Var{2, 3})); err != nil {
		t.Fatalf("partitioning check failed on UNSAT formula: %v", err)
	}
}

// TestPartitioningProperty checks the partitioning property on random small
// formulas and decomposition sets.
func TestPartitioningProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nv := 4 + rng.Intn(5)
		f := cnf.New(nv)
		for i := 0; i < 3+rng.Intn(10); i++ {
			width := 1 + rng.Intn(3)
			c := make(cnf.Clause, 0, width)
			for j := 0; j < width; j++ {
				c = append(c, cnf.NewLit(cnf.Var(rng.Intn(nv)+1), rng.Intn(2) == 0))
			}
			f.AddClause(c)
		}
		d := 1 + rng.Intn(3)
		vars := make([]cnf.Var, 0, d)
		for len(vars) < d {
			v := cnf.Var(rng.Intn(nv) + 1)
			dup := false
			for _, w := range vars {
				if w == v {
					dup = true
				}
			}
			if !dup {
				vars = append(vars, v)
			}
		}
		if err := partitioningError(NewFamily(f, vars)); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: Flip is an involution and Neighbors(1) has exactly Size entries
// each at distance one.
func TestPointFlipProperty(t *testing.T) {
	s := space(12)
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := s.RandomPoint(rng, 0.5)
		i := rng.Intn(s.Size())
		if !p.Flip(i).Flip(i).Equal(p) {
			return false
		}
		n := p.Neighbors(1)
		if len(n) != s.Size() {
			return false
		}
		for _, q := range n {
			if p.HammingDistance(q) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
