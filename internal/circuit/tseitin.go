package circuit

import (
	"fmt"

	"github.com/paper-repro/pdsat-go/internal/cnf"
)

// Encoding is the result of the Tseitin transformation of a circuit.
type Encoding struct {
	// CNF is the transformed formula.  Satisfying assignments restricted to
	// InputVars are exactly the circuit inputs; the values of OutputVars
	// equal the circuit outputs on those inputs.
	CNF *cnf.Formula
	// GateVars maps each gate ID to its CNF variable.
	GateVars []cnf.Var
	// InputVars are the variables of the primary inputs, in input order.
	// They always occupy variables 1..NumInputs, which makes them directly
	// usable as the Strong Unit-Propagation Backdoor Set (the X̃_start of
	// the paper).
	InputVars []cnf.Var
	// OutputVars are the variables of the outputs, in output order.
	OutputVars []cnf.Var

	pool litPool // what Encode left for ConstrainOutputs
}

// litPool hands out the literal slices of clauses from one block, so that an
// encoding of tens of thousands of short clauses is one allocation, not one a
// clause.  Encode sizes the block from a count over the gates; a pool that
// runs out makes a new block.
type litPool []cnf.Lit

// take returns a clause of n literals to be filled in.  Its capacity is its
// length: appending to it cannot reach the next clause.
func (p *litPool) take(n int) cnf.Clause {
	if len(*p) < n {
		*p = make(litPool, max(n, 1024))
	}
	c := (*p)[:n:n]
	*p = (*p)[n:]
	return cnf.Clause(c)
}

// addClause appends the clause of the given literals to the encoding's CNF.
func (e *Encoding) addClause(lits ...cnf.Lit) {
	c := e.pool.take(len(lits))
	copy(c, lits)
	e.CNF.AddClause(c)
}

// cnfSize returns how many clauses and literals Encode emits for the gate
// (for a constant, at most: the shared true variable is made once).
func (g *Gate) cnfSize() (clauses, lits int) {
	k := len(g.In)
	switch g.Type {
	case GateConst:
		return 2, 2
	case GateNot:
		return 2, 4
	case GateAnd:
		return k + 1, 3*k + 1
	case GateXor: // a chain of k-1 binary XORs; Encode rejects k = 0
		return 4 * max(k-1, 0), 12 * max(k-1, 0)
	case GateMaj, GateMux:
		return 6, 18
	default:
		return 0, 0
	}
}

// Encode performs the Tseitin transformation of the circuit.  Input gates
// are assigned variables 1..NumInputs in input order; every other
// non-trivial gate gets a fresh variable.
func (c *Circuit) Encode() (*Encoding, error) {
	enc := &Encoding{
		CNF:        cnf.New(0),
		GateVars:   make([]cnf.Var, len(c.gates)),
		InputVars:  make([]cnf.Var, 0, len(c.inputs)),
		OutputVars: make([]cnf.Var, 0, len(c.outputs)),
	}
	// Build by count: one clause list and one literal block for the gates
	// and for a unit on every output (ConstrainOutputs); the list also has
	// room for a unit on every input, which is how instances are weakened.
	clauses, lits := len(c.outputs), len(c.outputs)
	for id := range c.gates {
		n, l := c.gates[id].cnfSize()
		clauses += n
		lits += l
	}
	enc.CNF.Clauses = make([]cnf.Clause, 0, clauses+len(c.inputs))
	enc.pool = make(litPool, lits)
	next := cnf.Var(1)
	newVar := func() cnf.Var {
		v := next
		next++
		return v
	}
	// Inputs first so they occupy 1..NumInputs.
	for _, id := range c.inputs {
		v := newVar()
		enc.GateVars[id] = v
		enc.InputVars = append(enc.InputVars, v)
	}
	// trueVar is lazily created when a constant gate needs a variable.
	var trueVar cnf.Var
	getTrueVar := func() cnf.Var {
		if trueVar == 0 {
			trueVar = newVar()
			enc.addClause(cnf.NewLit(trueVar, true))
		}
		return trueVar
	}

	lit := func(id GateID) cnf.Lit { return cnf.NewLit(enc.GateVars[id], true) }

	for id := range c.gates {
		g := &c.gates[id]
		switch g.Type {
		case GateInput:
			// already assigned
		case GateConst:
			tv := getTrueVar()
			if g.Const {
				enc.GateVars[id] = tv
			} else {
				// Represent false as a variable forced to false.
				v := newVar()
				enc.GateVars[id] = v
				enc.addClause(cnf.NewLit(v, false))
			}
		case GateNot:
			// Reuse the operand variable with opposite polarity is not
			// possible in this representation (GateVars holds variables, not
			// literals), so introduce y ↔ ¬a.
			y := newVar()
			enc.GateVars[id] = y
			a := lit(g.In[0])
			enc.addClause(cnf.NewLit(y, false), a.Neg())
			enc.addClause(cnf.NewLit(y, true), a)
		case GateAnd:
			y := newVar()
			enc.GateVars[id] = y
			yl := cnf.NewLit(y, true)
			long := enc.pool.take(len(g.In) + 1)
			long[0] = yl
			for k, in := range g.In {
				a := lit(in)
				enc.addClause(yl.Neg(), a)
				long[k+1] = a.Neg()
			}
			enc.CNF.AddClause(long)
		case GateXor:
			// Encode n-ary XOR as a chain of binary XORs.
			if len(g.In) == 0 {
				return nil, fmt.Errorf("circuit: empty xor gate %d", id)
			}
			cur := enc.GateVars[g.In[0]]
			for k := 1; k < len(g.In); k++ {
				b := enc.GateVars[g.In[k]]
				y := newVar()
				enc.addXor2(y, cur, b)
				cur = y
			}
			enc.GateVars[id] = cur
		case GateMaj:
			y := newVar()
			enc.GateVars[id] = y
			a, b, d := lit(g.In[0]), lit(g.In[1]), lit(g.In[2])
			yl := cnf.NewLit(y, true)
			// y ↔ at-least-two-of(a,b,d)
			enc.addClause(yl.Neg(), a, b)
			enc.addClause(yl.Neg(), a, d)
			enc.addClause(yl.Neg(), b, d)
			enc.addClause(yl, a.Neg(), b.Neg())
			enc.addClause(yl, a.Neg(), d.Neg())
			enc.addClause(yl, b.Neg(), d.Neg())
		case GateMux:
			y := newVar()
			enc.GateVars[id] = y
			s, a, b := lit(g.In[0]), lit(g.In[1]), lit(g.In[2])
			yl := cnf.NewLit(y, true)
			// y ↔ (s ? a : b)
			enc.addClause(s.Neg(), a.Neg(), yl)
			enc.addClause(s.Neg(), a, yl.Neg())
			enc.addClause(s, b.Neg(), yl)
			enc.addClause(s, b, yl.Neg())
			// Redundant but propagation-helpful: if a and b agree, y agrees.
			enc.addClause(a.Neg(), b.Neg(), yl)
			enc.addClause(a, b, yl.Neg())
		default:
			return nil, fmt.Errorf("circuit: cannot encode gate type %v", g.Type)
		}
	}
	if enc.CNF.NumVars < int(next-1) {
		enc.CNF.NumVars = int(next - 1)
	}
	for _, id := range c.outputs {
		enc.OutputVars = append(enc.OutputVars, enc.GateVars[id])
	}
	return enc, nil
}

// addXor2 adds clauses for y ↔ a ⊕ b.
func (e *Encoding) addXor2(y, a, b cnf.Var) {
	yl := cnf.NewLit(y, true)
	al := cnf.NewLit(a, true)
	bl := cnf.NewLit(b, true)
	e.addClause(yl.Neg(), al, bl)
	e.addClause(yl.Neg(), al.Neg(), bl.Neg())
	e.addClause(yl, al.Neg(), bl)
	e.addClause(yl, al, bl.Neg())
}

// ConstrainOutputs appends unit clauses to the encoding's CNF forcing the
// circuit outputs to the given values.  This is how an observed keystream is
// injected into a cryptanalysis instance.
func (e *Encoding) ConstrainOutputs(values []bool) error {
	if len(values) != len(e.OutputVars) {
		return fmt.Errorf("circuit: got %d output values, want %d", len(values), len(e.OutputVars))
	}
	for i, v := range e.OutputVars {
		e.addClause(cnf.NewLit(v, values[i]))
	}
	return nil
}
