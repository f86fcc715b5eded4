package solver

import (
	"testing"

	"github.com/paper-repro/pdsat-go/internal/cnf"
)

// fuzzFormula decodes a small CNF from fuzz input: numVars = 3 + data[0]%8
// (3..10 variables); each following byte contributes one literal (variable =
// b%numVars, sign = bit 7), with the zero byte acting as a clause
// terminator, and at most 64 clauses are kept.  Any non-empty byte slice
// decodes to a well-formed formula, so the fuzzer's mutations always reach
// the solver.
func fuzzFormula(data []byte) *cnf.Formula {
	numVars := 3 + int(data[0])%8
	formula := &cnf.Formula{NumVars: numVars}
	var clause cnf.Clause
	for _, b := range data[1:] {
		if b == 0 {
			if len(clause) > 0 {
				formula.Clauses = append(formula.Clauses, clause)
				clause = nil
			}
			continue
		}
		v := cnf.Var(int(b&0x7f)%numVars + 1)
		clause = append(clause, cnf.NewLit(v, b&0x80 == 0))
	}
	if len(clause) > 0 {
		formula.Clauses = append(formula.Clauses, clause)
	}
	if len(formula.Clauses) > 64 {
		formula.Clauses = formula.Clauses[:64]
	}
	return formula
}

// FuzzSolverVsDPLL differentially fuzzes the arena CDCL solver against the
// reference DPLL solver on small random CNFs decoded from the fuzz input.
// The solver must agree with the oracle on satisfiability, and every SAT
// model must actually satisfy the formula (input encoding: see fuzzFormula).
func FuzzSolverVsDPLL(f *testing.F) {
	f.Add([]byte{2, 1, 130, 0, 2, 131, 0, 3, 1, 0})
	f.Add([]byte{0, 1, 0, 129, 0})                       // unit clauses x1, ¬x1: UNSAT
	f.Add([]byte{7, 1, 2, 3, 0, 131, 132, 133, 0, 4, 5}) // mixed widths
	f.Add([]byte{5})                                     // empty formula
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		formula := fuzzFormula(data)

		d := NewDPLL(formula)
		d.MaxNodes = 1 << 20
		want := d.Solve()
		if want.Status == Unknown {
			t.Skip("DPLL node budget exceeded")
		}

		got := NewDefault(formula).Solve()
		if got.Status != want.Status {
			t.Fatalf("CDCL=%v, DPLL oracle=%v\nformula: %+v", got.Status, want.Status, formula)
		}
		if got.Status == Sat && !Verify(formula, got.Model) {
			t.Fatalf("CDCL model does not satisfy the formula %+v", formula)
		}
	})
}
