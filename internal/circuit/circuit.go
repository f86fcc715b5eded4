// Package circuit provides a Boolean-circuit representation (a DAG of
// gates) together with evaluation and the Tseitin transformation into CNF.
//
// It plays the role of the Transalg tool used in the paper: the cryptanalysis
// problems of the A5/1, Bivium and Grain keystream generators are described
// as circuits whose inputs are the unknown register states and whose outputs
// are the produced keystream bits; the Tseitin encoding then yields the CNF
// on which partitionings are searched.
package circuit

import (
	"fmt"
)

// GateType enumerates the supported gate kinds.
type GateType int

// Supported gate kinds.
const (
	// GateInput is a primary input of the circuit.
	GateInput GateType = iota
	// GateConst is a Boolean constant.
	GateConst
	// GateNot is negation (one operand).
	GateNot
	// GateAnd is an n-ary conjunction (n >= 1).
	GateAnd
	// GateXor is an n-ary exclusive or (n >= 1).
	GateXor
	// GateMaj is the majority of exactly three operands.
	GateMaj
	// GateMux is if-then-else: Mux(s, a, b) = s ? a : b (three operands).
	GateMux
)

// String implements fmt.Stringer.
func (t GateType) String() string {
	switch t {
	case GateInput:
		return "input"
	case GateConst:
		return "const"
	case GateNot:
		return "not"
	case GateAnd:
		return "and"
	case GateXor:
		return "xor"
	case GateMaj:
		return "maj"
	case GateMux:
		return "mux"
	default:
		return fmt.Sprintf("gate(%d)", int(t))
	}
}

// GateID identifies a gate within its circuit.
type GateID int

// Gate is a single node of the circuit DAG.
type Gate struct {
	Type GateType
	// In are the operand gate IDs (empty for inputs and constants).
	In []GateID
	// Const is the value of a GateConst.
	Const bool
	// Name is an optional label (used for inputs and outputs).
	Name string
}

// Circuit is a combinational Boolean circuit.
type Circuit struct {
	gates   []Gate
	inputs  []GateID
	outputs []GateID
	// structural-hashing table: key -> existing gate
	hash map[gateKey]GateID
}

type gateKey struct {
	typ        GateType
	a, b, c    GateID
	constValue bool
	arity      int
}

// New creates an empty circuit.
func New() *Circuit {
	return &Circuit{hash: make(map[gateKey]GateID)}
}

// NumGates returns the number of gates in the circuit.
func (c *Circuit) NumGates() int { return len(c.gates) }

// NumInputs returns the number of primary inputs.
func (c *Circuit) NumInputs() int { return len(c.inputs) }

// NumOutputs returns the number of outputs.
func (c *Circuit) NumOutputs() int { return len(c.outputs) }

// Gate returns the gate with the given ID.
func (c *Circuit) Gate(id GateID) Gate { return c.gates[id] }

func (c *Circuit) add(g Gate) GateID {
	id := GateID(len(c.gates))
	c.gates = append(c.gates, g)
	return id
}

// Input creates a new primary input gate.
func (c *Circuit) Input(name string) GateID {
	id := c.add(Gate{Type: GateInput, Name: name})
	c.inputs = append(c.inputs, id)
	return id
}

// Const creates (or reuses) a constant gate.
func (c *Circuit) Const(v bool) GateID {
	key := gateKey{typ: GateConst, constValue: v}
	if id, ok := c.hash[key]; ok {
		return id
	}
	id := c.add(Gate{Type: GateConst, Const: v})
	c.hash[key] = id
	return id
}

func (c *Circuit) hashed2(typ GateType, a, b GateID) (GateID, bool) {
	if b < a && (typ == GateAnd || typ == GateXor) {
		a, b = b, a
	}
	key := gateKey{typ: typ, a: a, b: b, arity: 2}
	id, ok := c.hash[key]
	return id, ok
}

func (c *Circuit) store2(typ GateType, a, b, id GateID) {
	if b < a && (typ == GateAnd || typ == GateXor) {
		a, b = b, a
	}
	c.hash[gateKey{typ: typ, a: a, b: b, arity: 2}] = id
}

// Not returns the negation of a, with structural hashing and constant
// folding.
func (c *Circuit) Not(a GateID) GateID {
	if g := c.gates[a]; g.Type == GateConst {
		return c.Const(!g.Const)
	}
	if g := c.gates[a]; g.Type == GateNot {
		return g.In[0] // double negation
	}
	key := gateKey{typ: GateNot, a: a, arity: 1}
	if id, ok := c.hash[key]; ok {
		return id
	}
	id := c.add(Gate{Type: GateNot, In: []GateID{a}})
	c.hash[key] = id
	return id
}

// And2 returns the conjunction of two gates.
func (c *Circuit) And2(a, b GateID) GateID {
	ga, gb := c.gates[a], c.gates[b]
	switch {
	case ga.Type == GateConst && !ga.Const:
		return c.Const(false)
	case gb.Type == GateConst && !gb.Const:
		return c.Const(false)
	case ga.Type == GateConst && ga.Const:
		return b
	case gb.Type == GateConst && gb.Const:
		return a
	case a == b:
		return a
	}
	if id, ok := c.hashed2(GateAnd, a, b); ok {
		return id
	}
	id := c.add(Gate{Type: GateAnd, In: []GateID{a, b}})
	c.store2(GateAnd, a, b, id)
	return id
}

// Xor2 returns the exclusive or of two gates.
func (c *Circuit) Xor2(a, b GateID) GateID {
	ga, gb := c.gates[a], c.gates[b]
	switch {
	case ga.Type == GateConst && gb.Type == GateConst:
		return c.Const(ga.Const != gb.Const)
	case ga.Type == GateConst && !ga.Const:
		return b
	case gb.Type == GateConst && !gb.Const:
		return a
	case ga.Type == GateConst && ga.Const:
		return c.Not(b)
	case gb.Type == GateConst && gb.Const:
		return c.Not(a)
	case a == b:
		return c.Const(false)
	}
	if id, ok := c.hashed2(GateXor, a, b); ok {
		return id
	}
	id := c.add(Gate{Type: GateXor, In: []GateID{a, b}})
	c.store2(GateXor, a, b, id)
	return id
}

// And returns the conjunction of one or more gates.
func (c *Circuit) And(xs ...GateID) GateID {
	return c.fold(xs, c.And2, true)
}

// Xor returns the exclusive or of one or more gates.
func (c *Circuit) Xor(xs ...GateID) GateID {
	return c.fold(xs, c.Xor2, false)
}

func (c *Circuit) fold(xs []GateID, f func(a, b GateID) GateID, emptyVal bool) GateID {
	if len(xs) == 0 {
		return c.Const(emptyVal)
	}
	acc := xs[0]
	for _, x := range xs[1:] {
		acc = f(acc, x)
	}
	return acc
}

// Maj returns the majority of three gates.
func (c *Circuit) Maj(a, b, d GateID) GateID {
	key := gateKey{typ: GateMaj, a: a, b: b, c: d, arity: 3}
	if id, ok := c.hash[key]; ok {
		return id
	}
	id := c.add(Gate{Type: GateMaj, In: []GateID{a, b, d}})
	c.hash[key] = id
	return id
}

// Mux returns s ? a : b.
func (c *Circuit) Mux(s, a, b GateID) GateID {
	if a == b {
		return a
	}
	if g := c.gates[s]; g.Type == GateConst {
		if g.Const {
			return a
		}
		return b
	}
	key := gateKey{typ: GateMux, a: s, b: a, c: b, arity: 3}
	if id, ok := c.hash[key]; ok {
		return id
	}
	id := c.add(Gate{Type: GateMux, In: []GateID{s, a, b}})
	c.hash[key] = id
	return id
}

// MarkOutput appends the gate to the circuit's output list and returns its
// output index.
func (c *Circuit) MarkOutput(id GateID, name string) int {
	if name != "" && c.gates[id].Name == "" {
		c.gates[id].Name = name
	}
	c.outputs = append(c.outputs, id)
	return len(c.outputs) - 1
}

// Evaluate computes the output values for the given input values (one per
// primary input, in creation order).
func (c *Circuit) Evaluate(inputs []bool) ([]bool, error) {
	if len(inputs) != len(c.inputs) {
		return nil, fmt.Errorf("circuit: got %d inputs, want %d", len(inputs), len(c.inputs))
	}
	values := make([]bool, len(c.gates))
	inputIdx := make(map[GateID]int, len(c.inputs))
	for i, id := range c.inputs {
		inputIdx[id] = i
	}
	for id := range c.gates {
		g := &c.gates[id]
		switch g.Type {
		case GateInput:
			values[id] = inputs[inputIdx[GateID(id)]]
		case GateConst:
			values[id] = g.Const
		case GateNot:
			values[id] = !values[g.In[0]]
		case GateAnd:
			v := true
			for _, in := range g.In {
				v = v && values[in]
			}
			values[id] = v
		case GateXor:
			v := false
			for _, in := range g.In {
				v = v != values[in]
			}
			values[id] = v
		case GateMaj:
			a, b, d := values[g.In[0]], values[g.In[1]], values[g.In[2]]
			values[id] = (a && b) || (a && d) || (b && d)
		case GateMux:
			if values[g.In[0]] {
				values[id] = values[g.In[1]]
			} else {
				values[id] = values[g.In[2]]
			}
		default:
			return nil, fmt.Errorf("circuit: unknown gate type %v", g.Type)
		}
	}
	out := make([]bool, len(c.outputs))
	for i, id := range c.outputs {
		out[i] = values[id]
	}
	return out, nil
}

// String returns a short human-readable summary.
func (c *Circuit) String() string {
	return fmt.Sprintf("circuit{gates=%d inputs=%d outputs=%d}", len(c.gates), len(c.inputs), len(c.outputs))
}
