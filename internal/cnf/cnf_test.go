package cnf

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestLitBasics(t *testing.T) {
	l := NewLit(5, true)
	if l.Var() != 5 || !l.Positive() {
		t.Fatalf("NewLit(5,true) = %v", l)
	}
	n := l.Neg()
	if n.Var() != 5 || n.Positive() {
		t.Fatalf("Neg() = %v", n)
	}
	if n.Neg() != l {
		t.Fatalf("double negation changed literal: %v", n.Neg())
	}
	if got := NewLit(3, false); got != Lit(-3) {
		t.Fatalf("NewLit(3,false) = %v", got)
	}
}

func TestNewLitPanicsOnInvalidVar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for variable 0")
		}
	}()
	NewLit(0, true)
}

func TestValueNot(t *testing.T) {
	if True.Not() != False || False.Not() != True || Unassigned.Not() != Unassigned {
		t.Fatal("Value.Not misbehaves")
	}
	if True.String() != "true" || False.String() != "false" || Unassigned.String() != "unassigned" {
		t.Fatal("Value.String misbehaves")
	}
}

func TestClauseHelpers(t *testing.T) {
	c := Clause{1, -4, 3}
	if !c.Contains(-4) || c.Contains(4) {
		t.Fatal("Contains misbehaves")
	}
	if c.MaxVar() != 4 {
		t.Fatalf("MaxVar = %d, want 4", c.MaxVar())
	}
	clone := c.Clone()
	clone[0] = 9
	if c[0] != 1 {
		t.Fatal("Clone did not copy")
	}
}

func TestAssignment(t *testing.T) {
	a := NewAssignment(3)
	a.Set(2, True)
	if a.Value(2) != True || a.LitValue(Lit(2)) != True || a.LitValue(Lit(-2)) != False {
		t.Fatal("Set/Value/LitValue misbehave")
	}
	a.SetLit(Lit(-3))
	if a.Value(3) != False {
		t.Fatal("SetLit(-3) should make var 3 false")
	}
	// growth
	a.Set(10, True)
	if a.Value(10) != True {
		t.Fatal("Set should grow the assignment")
	}
	if a.Value(100) != Unassigned || a.Value(0) != Unassigned {
		t.Fatal("out-of-range Value should be Unassigned")
	}
	b := a.Clone()
	b.Set(2, False)
	if a.Value(2) != True {
		t.Fatal("Clone should not alias")
	}
}

func TestFormulaEvaluate(t *testing.T) {
	f := New(3)
	f.AddClauseLits(1, 2)
	f.AddClauseLits(-1, 3)
	a := NewAssignment(3)
	if f.Evaluate(a) != Unassigned {
		t.Fatal("empty assignment should leave formula undecided")
	}
	a.Set(1, True)
	a.Set(3, True)
	if f.Evaluate(a) != True {
		t.Fatal("formula should be satisfied")
	}
	a.Set(3, False)
	if f.Evaluate(a) != False {
		t.Fatal("formula should be falsified")
	}
	if f.IsSatisfiedBy(a) {
		t.Fatal("IsSatisfiedBy should be false")
	}
}

func TestFormulaAddClauseGrowsVars(t *testing.T) {
	f := New(2)
	f.AddClauseLits(5, -6)
	if f.NumVars != 6 {
		t.Fatalf("NumVars = %d, want 6", f.NumVars)
	}
	if f.NumClauses() != 1 {
		t.Fatalf("NumClauses = %d, want 1", f.NumClauses())
	}
}

func TestFormulaVars(t *testing.T) {
	f := New(0)
	f.AddClauseLits(3, -1)
	f.AddClauseLits(-3, 7)
	vars := f.Vars()
	want := []Var{1, 3, 7}
	if len(vars) != len(want) {
		t.Fatalf("Vars = %v", vars)
	}
	for i := range want {
		if vars[i] != want[i] {
			t.Fatalf("Vars = %v, want %v", vars, want)
		}
	}
}

func TestUnitPropagate(t *testing.T) {
	f := New(4)
	f.AddClauseLits(1)
	f.AddClauseLits(-1, 2)
	f.AddClauseLits(-2, 3)
	a, ok := f.UnitPropagate(NewAssignment(4))
	if !ok {
		t.Fatal("unexpected conflict")
	}
	if a.Value(1) != True || a.Value(2) != True || a.Value(3) != True {
		t.Fatalf("propagation incomplete: %v", a)
	}
	if a.Value(4) != Unassigned {
		t.Fatal("variable 4 should stay unassigned")
	}
	// Conflict case.
	f.AddClauseLits(-3)
	_, ok = f.UnitPropagate(NewAssignment(4))
	if ok {
		t.Fatal("expected conflict")
	}
}

func TestCloneIndependence(t *testing.T) {
	f := New(2)
	f.AddClauseLits(1, -2)
	f.Comments = []string{"original"}
	g := f.Clone()
	g.Clauses[0][0] = 2
	g.Comments[0] = "copy"
	if f.Clauses[0][0] != 1 || f.Comments[0] != "original" {
		t.Fatal("Clone should deep-copy")
	}
}

func TestDIMACSRoundTrip(t *testing.T) {
	f := New(4)
	f.Comments = []string{"round trip test"}
	f.AddClauseLits(1, -2, 3)
	f.AddClauseLits(-4)
	f.AddClauseLits(2, 4)
	text := f.DIMACSString()
	g, err := ParseDIMACSString(text)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if g.NumVars != f.NumVars || g.NumClauses() != f.NumClauses() {
		t.Fatalf("round trip mismatch: %v vs %v", g, f)
	}
	for i := range f.Clauses {
		if len(f.Clauses[i]) != len(g.Clauses[i]) {
			t.Fatalf("clause %d mismatch", i)
		}
		for j := range f.Clauses[i] {
			if f.Clauses[i][j] != g.Clauses[i][j] {
				t.Fatalf("clause %d mismatch", i)
			}
		}
	}
	if len(g.Comments) != 1 || g.Comments[0] != "round trip test" {
		t.Fatalf("comments not preserved: %v", g.Comments)
	}
}

func TestParseDIMACSVariants(t *testing.T) {
	// Multi-line clause, missing problem line, trailing clause without 0.
	text := "c hello\n1 2\n-3 0\n2 -1"
	f, err := ParseDIMACSString(text)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if f.NumClauses() != 2 {
		t.Fatalf("got %d clauses, want 2: %v", f.NumClauses(), f.Clauses)
	}
	if f.NumVars != 3 {
		t.Fatalf("NumVars = %d, want 3", f.NumVars)
	}
	// Declared var count larger than used.
	f2, err := ParseDIMACSString("p cnf 10 1\n1 0\n")
	if err != nil {
		t.Fatal(err)
	}
	if f2.NumVars != 10 {
		t.Fatalf("NumVars = %d, want 10", f2.NumVars)
	}
	// Percent terminator used by some benchmark suites.
	f3, err := ParseDIMACSString("p cnf 2 1\n1 -2 0\n%\n0\n")
	if err != nil {
		t.Fatal(err)
	}
	if f3.NumClauses() != 1 {
		t.Fatalf("clauses = %d, want 1", f3.NumClauses())
	}
}

func TestParseDIMACSErrors(t *testing.T) {
	cases := []string{
		"p cnf x 3\n1 0\n",
		"p dnf 2 1\n1 0\n",
		"1 a 0\n",
	}
	for _, c := range cases {
		if _, err := ParseDIMACSString(c); err == nil {
			t.Errorf("expected error for %q", c)
		}
	}
}

func TestParseDIMACSFileAndWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/test.cnf"
	f := New(2)
	f.AddClauseLits(1, 2)
	if err := f.WriteDIMACSFile(path); err != nil {
		t.Fatal(err)
	}
	g, err := ParseDIMACSFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumClauses() != 1 {
		t.Fatal("file round trip failed")
	}
	if _, err := ParseDIMACSFile(dir + "/missing.cnf"); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestEvaluateClauseAllFalse(t *testing.T) {
	f := New(2)
	f.AddClauseLits(1, 2)
	a := NewAssignment(2)
	a.Set(1, False)
	a.Set(2, False)
	if f.Evaluate(a) != False {
		t.Fatal("all-false clause should falsify formula")
	}
}

// Property: DIMACS round trip is the identity on clause content.
func TestDIMACSRoundTripProperty(t *testing.T) {
	prop := func(seed int64) bool {
		f := randomFormula(seed, 6, 12)
		g, err := ParseDIMACSString(f.DIMACSString())
		if err != nil {
			return false
		}
		if g.NumClauses() != f.NumClauses() {
			return false
		}
		for i := range f.Clauses {
			if len(f.Clauses[i]) != len(g.Clauses[i]) {
				return false
			}
			for j := range f.Clauses[i] {
				if f.Clauses[i][j] != g.Clauses[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// randomFormula builds a small pseudo-random formula from a seed, using a
// simple LCG so the cnf package tests do not need math/rand determinism
// guarantees.
func randomFormula(seed int64, numVars, numClauses int) *Formula {
	state := uint64(seed)*2862933555777941757 + 3037000493
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 11
	}
	f := New(numVars)
	for i := 0; i < numClauses; i++ {
		width := int(next()%3) + 1
		c := make(Clause, 0, width)
		for j := 0; j < width; j++ {
			v := Var(next()%uint64(numVars)) + 1
			pos := next()%2 == 0
			c = append(c, NewLit(v, pos))
		}
		f.AddClause(c)
	}
	return f
}

func TestFormulaString(t *testing.T) {
	f := New(2)
	f.AddClauseLits(1, 2)
	if !strings.Contains(f.String(), "vars=2") {
		t.Fatalf("String = %q", f.String())
	}
}
