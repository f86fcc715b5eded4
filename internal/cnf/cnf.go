// Package cnf provides the propositional-logic substrate used throughout the
// repository: literals, clauses, CNF formulas, partial assignments, DIMACS
// input/output and formula simplification.
//
// Variables are numbered starting from 1, as in the DIMACS convention.  A
// literal is a signed variable index: +v is the positive literal of variable
// v, -v its negation.  Literal 0 is invalid and never appears inside a
// clause.
package cnf

import (
	"fmt"
	"slices"
)

// Var is a propositional variable, numbered from 1.
type Var int

// Lit is a literal: +v for the positive literal of variable v, -v for the
// negative literal.  The zero value is not a valid literal.
type Lit int

// NewLit returns the literal of v with the given sign (true = positive).
func NewLit(v Var, positive bool) Lit {
	if v <= 0 {
		panic(fmt.Sprintf("cnf: invalid variable %d", v))
	}
	if positive {
		return Lit(v)
	}
	return Lit(-v)
}

// Var returns the variable of the literal.
func (l Lit) Var() Var {
	if l < 0 {
		return Var(-l)
	}
	return Var(l)
}

// Positive reports whether l is a positive literal.
func (l Lit) Positive() bool { return l > 0 }

// Neg returns the negation of the literal.
func (l Lit) Neg() Lit { return -l }

// String implements fmt.Stringer.
func (l Lit) String() string { return fmt.Sprintf("%d", int(l)) }

// Value is the truth value of a variable under a (partial) assignment.
type Value int8

// Truth values of a variable under a partial assignment.
const (
	Unassigned Value = iota
	True
	False
)

// String implements fmt.Stringer.
func (v Value) String() string {
	switch v {
	case True:
		return "true"
	case False:
		return "false"
	default:
		return "unassigned"
	}
}

// Not returns the negation of a truth value; Unassigned is its own negation.
func (v Value) Not() Value {
	switch v {
	case True:
		return False
	case False:
		return True
	default:
		return Unassigned
	}
}

// Clause is a disjunction of literals.
type Clause []Lit

// Clone returns a deep copy of the clause.
func (c Clause) Clone() Clause {
	out := make(Clause, len(c))
	copy(out, c)
	return out
}

// Contains reports whether the clause contains the literal l.
func (c Clause) Contains(l Lit) bool {
	for _, x := range c {
		if x == l {
			return true
		}
	}
	return false
}

// MaxVar returns the largest variable index mentioned in the clause, or 0 if
// the clause is empty.
func (c Clause) MaxVar() Var {
	var m Var
	for _, l := range c {
		if v := l.Var(); v > m {
			m = v
		}
	}
	return m
}

// Assignment maps variables to truth values.  Index 0 is unused.
type Assignment []Value

// NewAssignment returns an all-unassigned assignment able to hold variables
// 1..numVars.
func NewAssignment(numVars int) Assignment {
	return make(Assignment, numVars+1)
}

// Value returns the truth value of v, or Unassigned if v is out of range.
func (a Assignment) Value(v Var) Value {
	if int(v) <= 0 || int(v) >= len(a) {
		return Unassigned
	}
	return a[v]
}

// LitValue returns the truth value of a literal under the assignment.
func (a Assignment) LitValue(l Lit) Value {
	v := a.Value(l.Var())
	if v == Unassigned {
		return Unassigned
	}
	if l.Positive() {
		return v
	}
	return v.Not()
}

// Set assigns variable v.  It grows the assignment if needed.
func (a *Assignment) Set(v Var, val Value) {
	for int(v) >= len(*a) {
		*a = append(*a, Unassigned)
	}
	(*a)[v] = val
}

// SetLit makes literal l true under the assignment.
func (a *Assignment) SetLit(l Lit) {
	if l.Positive() {
		a.Set(l.Var(), True)
	} else {
		a.Set(l.Var(), False)
	}
}

// Clone returns a deep copy.
func (a Assignment) Clone() Assignment {
	out := make(Assignment, len(a))
	copy(out, a)
	return out
}

// Formula is a CNF formula: a conjunction of clauses over variables
// 1..NumVars.
type Formula struct {
	// NumVars is the number of variables; variables are 1..NumVars.  It may
	// exceed the largest variable actually mentioned in the clauses.
	NumVars int
	// Clauses are the clauses of the formula.
	Clauses []Clause
	// Comments holds free-form comment lines (without the leading "c ")
	// preserved from or destined for DIMACS files.
	Comments []string
}

// New returns an empty formula over numVars variables.
func New(numVars int) *Formula {
	return &Formula{NumVars: numVars}
}

// AddClause appends a clause, growing NumVars if the clause mentions a larger
// variable.  The clause is stored as given (no copy); callers must not modify
// it afterwards.
func (f *Formula) AddClause(c Clause) {
	if m := int(c.MaxVar()); m > f.NumVars {
		f.NumVars = m
	}
	f.Clauses = append(f.Clauses, c)
}

// AddClauseLits is a convenience wrapper around AddClause.
func (f *Formula) AddClauseLits(lits ...Lit) {
	f.AddClause(Clause(lits))
}

// NumClauses returns the number of clauses.
func (f *Formula) NumClauses() int { return len(f.Clauses) }

// Clone returns a deep copy of the formula.
func (f *Formula) Clone() *Formula {
	out := &Formula{NumVars: f.NumVars}
	out.Clauses = make([]Clause, len(f.Clauses))
	for i, c := range f.Clauses {
		out.Clauses[i] = c.Clone()
	}
	out.Comments = append([]string(nil), f.Comments...)
	return out
}

// Vars returns the sorted list of variables actually occurring in clauses.
func (f *Formula) Vars() []Var {
	seen := make(map[Var]bool)
	for _, c := range f.Clauses {
		for _, l := range c {
			seen[l.Var()] = true
		}
	}
	out := make([]Var, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// Evaluate returns the truth value of the formula under a complete or partial
// assignment: True if every clause has a true literal, False if some clause
// has all literals false, Unassigned otherwise.
func (f *Formula) Evaluate(a Assignment) Value {
	result := True
	for _, c := range f.Clauses {
		cv := evalClause(c, a)
		switch cv {
		case False:
			return False
		case Unassigned:
			result = Unassigned
		}
	}
	return result
}

func evalClause(c Clause, a Assignment) Value {
	allFalse := true
	for _, l := range c {
		switch a.LitValue(l) {
		case True:
			return True
		case Unassigned:
			allFalse = false
		}
	}
	if allFalse {
		return False
	}
	return Unassigned
}

// IsSatisfiedBy reports whether the assignment satisfies every clause.
func (f *Formula) IsSatisfiedBy(a Assignment) bool { return f.Evaluate(a) == True }

// UnitPropagate performs unit propagation on f starting from the partial
// assignment a (which is not modified).  It returns the extended assignment
// and false if a conflict (empty clause) was derived.
//
// This is a simple quadratic implementation intended for analysis and tests;
// the CDCL solver has its own watched-literal propagation.
func (f *Formula) UnitPropagate(a Assignment) (Assignment, bool) {
	cur := a.Clone()
	for len(cur) <= f.NumVars {
		cur = append(cur, Unassigned)
	}
	for {
		progress := false
		for _, c := range f.Clauses {
			var unassigned []Lit
			satisfied := false
			for _, l := range c {
				switch cur.LitValue(l) {
				case True:
					satisfied = true
				case Unassigned:
					unassigned = append(unassigned, l)
				}
				if satisfied {
					break
				}
			}
			if satisfied {
				continue
			}
			switch len(unassigned) {
			case 0:
				return cur, false
			case 1:
				cur.SetLit(unassigned[0])
				progress = true
			}
		}
		if !progress {
			return cur, true
		}
	}
}

// String returns a compact human-readable description of the formula.
func (f *Formula) String() string {
	return fmt.Sprintf("cnf{vars=%d clauses=%d}", f.NumVars, len(f.Clauses))
}
