package circuit

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/solver"
)

func TestGateConstruction(t *testing.T) {
	c := New()
	a := c.Input("a")
	b := c.Input("b")
	x := c.And2(a, b)
	z := c.Xor2(a, b)
	n := c.Not(a)
	m := c.Maj(a, b, x)
	mx := c.Mux(a, b, x)
	for _, id := range []GateID{x, z, n, m, mx} {
		if int(id) >= c.NumGates() {
			t.Fatalf("gate id %d out of range", id)
		}
	}
	if c.NumInputs() != 2 {
		t.Fatalf("NumInputs = %d", c.NumInputs())
	}
	c.MarkOutput(z, "z")
	if c.NumOutputs() != 1 {
		t.Fatal("MarkOutput failed")
	}
	if c.Gate(z).Type != GateXor {
		t.Fatalf("gate type = %v", c.Gate(z).Type)
	}
}

func TestStructuralHashing(t *testing.T) {
	c := New()
	a := c.Input("a")
	b := c.Input("b")
	x1 := c.And2(a, b)
	x2 := c.And2(b, a) // commutative: should be the same gate
	if x1 != x2 {
		t.Fatal("And2 should be structurally hashed")
	}
	if c.Xor2(a, b) != c.Xor2(a, b) {
		t.Fatal("Xor2 should be structurally hashed")
	}
	if c.Not(c.Not(a)) != a {
		t.Fatal("double negation should simplify")
	}
}

func TestConstantFolding(t *testing.T) {
	c := New()
	a := c.Input("a")
	tru := c.Const(true)
	fls := c.Const(false)
	if c.And2(a, fls) != fls {
		t.Fatal("a AND false should fold to false")
	}
	if c.And2(a, tru) != a {
		t.Fatal("a AND true should fold to a")
	}
	if c.Xor2(a, fls) != a {
		t.Fatal("a XOR false should fold to a")
	}
	if c.Xor2(a, a) != fls {
		t.Fatal("a XOR a should fold to false")
	}
	if c.Xor2(a, tru) != c.Not(a) {
		t.Fatal("a XOR true should fold to NOT a")
	}
	if c.Mux(tru, a, fls) != a || c.Mux(fls, a, fls) != fls {
		t.Fatal("Mux with constant selector should fold")
	}
	if c.Mux(a, tru, tru) != tru {
		t.Fatal("Mux with equal branches should fold")
	}
	if c.Const(true) != tru {
		t.Fatal("Const should be hashed")
	}
}

func TestEvaluateTruthTables(t *testing.T) {
	c := New()
	a := c.Input("a")
	b := c.Input("b")
	d := c.Input("d")
	c.MarkOutput(c.And2(a, b), "and")
	c.MarkOutput(c.Xor2(a, b), "xor")
	c.MarkOutput(c.Not(a), "not")
	c.MarkOutput(c.Maj(a, b, d), "maj")
	c.MarkOutput(c.Mux(a, b, d), "mux")

	for mask := 0; mask < 8; mask++ {
		av, bv, dv := mask&1 == 1, mask&2 == 2, mask&4 == 4
		out, err := c.Evaluate([]bool{av, bv, dv})
		if err != nil {
			t.Fatal(err)
		}
		maj := (av && bv) || (av && dv) || (bv && dv)
		mux := dv
		if av {
			mux = bv
		}
		want := []bool{av && bv, av != bv, !av, maj, mux}
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("inputs a=%v b=%v d=%v: output %d = %v, want %v", av, bv, dv, i, out[i], want[i])
			}
		}
	}
}

func TestEvaluateInputMismatch(t *testing.T) {
	c := New()
	c.Input("a")
	if _, err := c.Evaluate([]bool{}); err == nil {
		t.Fatal("expected error for wrong input count")
	}
}

func TestNaryGates(t *testing.T) {
	c := New()
	ins := make([]GateID, 5)
	for i := range ins {
		ins[i] = c.Input("x")
	}
	c.MarkOutput(c.And(ins...), "and")
	c.MarkOutput(c.Xor(ins...), "xor")
	for mask := 0; mask < 32; mask++ {
		vals := make([]bool, 5)
		allTrue, parity := true, false
		for i := range vals {
			vals[i] = mask&(1<<i) != 0
			allTrue = allTrue && vals[i]
			parity = parity != vals[i]
		}
		out, err := c.Evaluate(vals)
		if err != nil {
			t.Fatal(err)
		}
		if out[0] != allTrue || out[1] != parity {
			t.Fatalf("mask %d: got %v", mask, out)
		}
	}
	// Empty n-ary gates fold to their neutral element.
	if c.Gate(c.And()).Type != GateConst || !c.Gate(c.And()).Const {
		t.Fatal("empty And should be the constant true")
	}
	if g := c.Gate(c.Xor()); g.Type != GateConst || g.Const {
		t.Fatal("empty Xor should be the constant false")
	}
}

func TestGateTypeString(t *testing.T) {
	types := []GateType{GateInput, GateConst, GateNot, GateAnd, GateXor, GateMaj, GateMux, GateType(99)}
	for _, typ := range types {
		if typ.String() == "" {
			t.Fatalf("empty string for %d", int(typ))
		}
	}
}

func TestCircuitString(t *testing.T) {
	c := New()
	c.Input("a")
	if c.String() == "" {
		t.Fatal("String should not be empty")
	}
}

// randomCircuit builds a random circuit over n inputs with depth layers.
func randomCircuit(rng *rand.Rand, n, extraGates int) *Circuit {
	c := New()
	pool := make([]GateID, 0, n+extraGates)
	for i := 0; i < n; i++ {
		pool = append(pool, c.Input("in"))
	}
	pick := func() GateID { return pool[rng.Intn(len(pool))] }
	for i := 0; i < extraGates; i++ {
		var g GateID
		switch rng.Intn(5) {
		case 0:
			g = c.And2(pick(), pick())
		case 1:
			g = c.Xor2(pick(), pick())
		case 2:
			g = c.Not(pick())
		case 3:
			g = c.Maj(pick(), pick(), pick())
		default:
			g = c.Mux(pick(), pick(), pick())
		}
		pool = append(pool, g)
	}
	// Mark a handful of outputs.
	for i := 0; i < 3; i++ {
		c.MarkOutput(pick(), "")
	}
	return c
}

// TestTseitinAgreesWithEvaluation checks, for random circuits and random
// inputs, that the Tseitin encoding constrained to the circuit outputs is
// satisfied exactly when the inputs produce those outputs.
func TestTseitinAgreesWithEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 50; iter++ {
		numIn := 3 + rng.Intn(5)
		c := randomCircuit(rng, numIn, 10+rng.Intn(30))
		enc, err := c.Encode()
		if err != nil {
			t.Fatal(err)
		}
		inputs := make([]bool, numIn)
		for i := range inputs {
			inputs[i] = rng.Intn(2) == 1
		}
		outputs, err := c.Evaluate(inputs)
		if err != nil {
			t.Fatal(err)
		}
		// Constrain the encoding to the computed outputs and fix the inputs:
		// the formula must be satisfiable.
		f := enc.CNF.Clone()
		for i, v := range enc.OutputVars {
			f.AddClause(cnf.Clause{cnf.NewLit(v, outputs[i])})
		}
		for i, v := range enc.InputVars {
			f.AddClause(cnf.Clause{cnf.NewLit(v, inputs[i])})
		}
		res := solver.NewDefault(f).Solve()
		if res.Status != solver.Sat {
			t.Fatalf("iter %d: encoding with correct outputs should be SAT, got %v", iter, res.Status)
		}
		// Flip one output: with the same fixed inputs the formula must be
		// unsatisfiable.
		g := enc.CNF.Clone()
		flipped := append([]bool(nil), outputs...)
		flipped[0] = !flipped[0]
		for i, v := range enc.OutputVars {
			g.AddClause(cnf.Clause{cnf.NewLit(v, flipped[i])})
		}
		for i, v := range enc.InputVars {
			g.AddClause(cnf.Clause{cnf.NewLit(v, inputs[i])})
		}
		res = solver.NewDefault(g).Solve()
		if res.Status != solver.Unsat {
			t.Fatalf("iter %d: encoding with flipped output should be UNSAT, got %v", iter, res.Status)
		}
	}
}

// Property: for a fixed small circuit, the set of satisfying assignments of
// the Tseitin encoding projected to inputs+outputs is exactly the graph of
// the circuit function.
func TestTseitinFunctionalProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(rng, 4, 12)
		enc, err := c.Encode()
		if err != nil {
			return false
		}
		inputs := make([]bool, 4)
		for i := range inputs {
			inputs[i] = rng.Intn(2) == 1
		}
		want, err := c.Evaluate(inputs)
		if err != nil {
			return false
		}
		f := enc.CNF.Clone()
		for i, v := range enc.InputVars {
			f.AddClause(cnf.Clause{cnf.NewLit(v, inputs[i])})
		}
		res := solver.NewDefault(f).Solve()
		if res.Status != solver.Sat {
			return false
		}
		// With inputs fixed, unit propagation through the Tseitin clauses
		// must force the outputs to the evaluated values.
		for i, v := range enc.OutputVars {
			got := res.Model.Value(v) == cnf.True
			if got != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestEncodeInputVarsAreFirst(t *testing.T) {
	c := New()
	a := c.Input("a")
	b := c.Input("b")
	c.MarkOutput(c.And2(a, b), "out")
	enc, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(enc.InputVars) != 2 || enc.InputVars[0] != 1 || enc.InputVars[1] != 2 {
		t.Fatalf("input variables should be 1..n, got %v", enc.InputVars)
	}
	if len(enc.OutputVars) != 1 {
		t.Fatalf("OutputVars = %v", enc.OutputVars)
	}
	if len(enc.GateVars) != c.NumGates() {
		t.Fatal("GateVars should cover all gates")
	}
}

func TestConstrainOutputs(t *testing.T) {
	c := New()
	a := c.Input("a")
	c.MarkOutput(c.Not(a), "na")
	enc, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.ConstrainOutputs([]bool{true}); err != nil {
		t.Fatal(err)
	}
	res := solver.NewDefault(enc.CNF).Solve()
	if res.Status != solver.Sat {
		t.Fatalf("expected SAT, got %v", res.Status)
	}
	if res.Model.Value(enc.InputVars[0]) != cnf.False {
		t.Fatal("output=true should force input a=false")
	}
	if err := enc.ConstrainOutputs([]bool{true, false}); err == nil {
		t.Fatal("expected length-mismatch error")
	}
}

func TestEncodeConstGates(t *testing.T) {
	c := New()
	a := c.Input("a")
	tr := c.Const(true)
	fl := c.Const(false)
	// Maj with constants cannot fold (Maj has no folding), so the encoder
	// must handle constant operands through their CNF variables.
	c.MarkOutput(c.Maj(a, tr, fl), "m")
	enc, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.ConstrainOutputs([]bool{true}); err != nil {
		t.Fatal(err)
	}
	res := solver.NewDefault(enc.CNF).Solve()
	if res.Status != solver.Sat {
		t.Fatalf("expected SAT, got %v", res.Status)
	}
	if res.Model.Value(enc.InputVars[0]) != cnf.True {
		t.Fatal("Maj(a,1,0)=1 should force a=true")
	}
}

// TestEncodeIsSizedByCount: Encode makes its clause list and its literal
// block once, from a count over the gates, so what it allocates does not
// follow the size of the circuit; the count is exact up to the constants'
// shared variable, leaves the clause list room for a unit on every input
// (how instances are weakened), and a clause cannot be appended into its
// neighbour.
func TestEncodeIsSizedByCount(t *testing.T) {
	build := func(gates int) *Circuit {
		c := randomCircuit(rand.New(rand.NewSource(11)), 12, gates)
		c.MarkOutput(c.Const(false), "zero") // both constants, and the n-ary gates
		c.MarkOutput(c.And(c.inputs[0], c.inputs[1], c.Const(true), c.inputs[2]), "and3")
		return c
	}
	allocs := func(c *Circuit) float64 {
		return testing.AllocsPerRun(5, func() {
			enc, err := c.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if err := enc.ConstrainOutputs(make([]bool, len(enc.OutputVars))); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := build(60), build(600)
	if a, b := allocs(small), allocs(large); a != b || a > 12 {
		t.Fatalf("encoding %d gates allocated %.0f times, %d gates %.0f times; want the same, and at most 12",
			small.NumGates(), a, large.NumGates(), b)
	}
	enc, err := large.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.ConstrainOutputs(make([]bool, len(enc.OutputVars))); err != nil {
		t.Fatal(err)
	}
	if left := len(enc.pool); left > 2 {
		t.Errorf("%d literals of the block left over, want at most the constants' 2", left)
	}
	if room := cap(enc.CNF.Clauses) - len(enc.CNF.Clauses); room < large.NumInputs() {
		t.Errorf("the clause list has room for %d more clauses, want a unit on each of %d inputs", room, large.NumInputs())
	}
	first := enc.CNF.Clauses[0]
	second := enc.CNF.Clauses[1][0]
	_ = append(first, 99)
	if enc.CNF.Clauses[1][0] != second {
		t.Error("appending to a clause overwrote the next one")
	}
}
