// Package decomp implements decomposition sets and decomposition families as
// defined in Section 2 of the paper.
//
// A decomposition set X̃ ⊆ X of the variables of a CNF C induces the
// decomposition family Δ_C(X̃): the 2^|X̃| formulas C[X̃/α] obtained by
// substituting every truth assignment α of X̃ into C.  The family is a
// partitioning of the SAT instance C: the subproblems are pairwise
// inconsistent and their disjunction is equivalent to C.
//
// Points of the optimizer's search space are represented by the indicator
// vector χ of the decomposition set over a fixed, ordered universe of
// candidate variables (the "search space" ℜ of the paper, in our experiments
// always the set of circuit-input / starting variables).
package decomp

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"github.com/paper-repro/pdsat-go/internal/cnf"
)

// Space is the ordered universe of candidate variables over which
// decomposition sets are formed (the paper's X̃_start; the search space is
// its power set).
type Space struct {
	vars  []cnf.Var
	index map[cnf.Var]int
}

// NewSpace creates a search space over the given variables.  Duplicates are
// removed; the order of first appearance is preserved.
func NewSpace(vars []cnf.Var) *Space {
	s := &Space{index: make(map[cnf.Var]int, len(vars))}
	for _, v := range vars {
		if _, dup := s.index[v]; dup {
			continue
		}
		s.index[v] = len(s.vars)
		s.vars = append(s.vars, v)
	}
	return s
}

// Size returns the number of candidate variables.
func (s *Space) Size() int { return len(s.vars) }

// Vars returns a copy of the candidate variables in order.
func (s *Space) Vars() []cnf.Var { return append([]cnf.Var(nil), s.vars...) }

// IndexOf returns the position of v in the space, or -1.
func (s *Space) IndexOf(v cnf.Var) int {
	if i, ok := s.index[v]; ok {
		return i
	}
	return -1
}

// Contains reports whether v belongs to the space.
func (s *Space) Contains(v cnf.Var) bool { return s.IndexOf(v) >= 0 }

// Point is the indicator vector χ of a decomposition set over a Space.  A
// Point is immutable from the caller's perspective; mutating helpers return
// new Points.
type Point struct {
	space *Space
	bits  []bool
	count int
}

// FullPoint returns the point selecting every variable of the space (the
// usual starting point X̃_start of the search).
func (s *Space) FullPoint() Point {
	bits := make([]bool, s.Size())
	for i := range bits {
		bits[i] = true
	}
	return Point{space: s, bits: bits, count: s.Size()}
}

// EmptyPoint returns the point selecting no variables.
func (s *Space) EmptyPoint() Point {
	return Point{space: s, bits: make([]bool, s.Size())}
}

// PointFromVars returns the point selecting exactly the given variables.
// Variables not in the space are reported as an error.
func (s *Space) PointFromVars(vars []cnf.Var) (Point, error) {
	p := s.EmptyPoint()
	for _, v := range vars {
		i := s.IndexOf(v)
		if i < 0 {
			return Point{}, fmt.Errorf("decomp: variable %d is not in the search space", v)
		}
		if !p.bits[i] {
			p.bits[i] = true
			p.count++
		}
	}
	return p, nil
}

// RandomPoint returns a point whose bits are set independently with the
// given probability.
func (s *Space) RandomPoint(rng *rand.Rand, prob float64) Point {
	p := s.EmptyPoint()
	for i := range p.bits {
		if rng.Float64() < prob {
			p.bits[i] = true
			p.count++
		}
	}
	return p
}

// Size returns the dimension of the underlying space.
func (p Point) Size() int { return len(p.bits) }

// Count returns |X̃|: the number of selected variables.
func (p Point) Count() int { return p.count }

// Bit reports whether the i-th candidate variable is selected.
func (p Point) Bit(i int) bool { return p.bits[i] }

// Has reports whether variable v is selected.
func (p Point) Has(v cnf.Var) bool {
	i := p.space.IndexOf(v)
	return i >= 0 && p.bits[i]
}

// Vars returns the selected variables in space order (the decomposition set
// X̃).
func (p Point) Vars() []cnf.Var {
	out := make([]cnf.Var, 0, p.count)
	for i, b := range p.bits {
		if b {
			out = append(out, p.space.vars[i])
		}
	}
	return out
}

// Clone returns an independent copy of the point.
func (p Point) Clone() Point {
	bits := make([]bool, len(p.bits))
	copy(bits, p.bits)
	return Point{space: p.space, bits: bits, count: p.count}
}

// Flip returns a new point with the i-th bit flipped.
func (p Point) Flip(i int) Point {
	q := p.Clone()
	if q.bits[i] {
		q.bits[i] = false
		q.count--
	} else {
		q.bits[i] = true
		q.count++
	}
	return q
}

// Equal reports whether two points select the same variables.
func (p Point) Equal(q Point) bool {
	if len(p.bits) != len(q.bits) {
		return false
	}
	for i := range p.bits {
		if p.bits[i] != q.bits[i] {
			return false
		}
	}
	return true
}

// Key returns a canonical string key for use in maps (tabu lists).
func (p Point) Key() string {
	var sb strings.Builder
	sb.Grow(len(p.bits))
	for _, b := range p.bits {
		if b {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// HammingDistance returns the number of positions in which two points
// differ.
func (p Point) HammingDistance(q Point) int {
	d := 0
	for i := range p.bits {
		if p.bits[i] != q.bits[i] {
			d++
		}
	}
	return d
}

// Neighbors returns the neighbourhood N_ρ(p) of radius ρ: every point at
// Hamming distance between 1 and ρ from p, in deterministic order.  For
// ρ = 1 (the setting used by PDSAT) this is simply the Size() single-bit
// flips.
func (p Point) Neighbors(radius int) []Point {
	switch {
	case radius <= 0:
		return nil
	case radius == 1:
		// Every flip of p is a different point and none is p, so the
		// breadth-first pass would keep them all, in this order.
		out := make([]Point, p.Size())
		for i := range out {
			out[i] = p.Flip(i)
		}
		return out
	}
	return p.neighborsByDistance(radius)
}

// neighborsByDistance is Neighbors for any radius: breadth-first generation
// by distance, which keeps the order deterministic, with every point seen so
// far remembered by its key.
func (p Point) neighborsByDistance(radius int) []Point {
	var out []Point
	current := []Point{p}
	seen := map[string]bool{p.Key(): true}
	for d := 1; d <= radius; d++ {
		var next []Point
		for _, q := range current {
			for i := 0; i < q.Size(); i++ {
				r := q.Flip(i)
				k := r.Key()
				if seen[k] {
					continue
				}
				seen[k] = true
				next = append(next, r)
				out = append(out, r)
			}
		}
		current = next
	}
	return out
}

// String returns a compact description of the point.
func (p Point) String() string {
	return fmt.Sprintf("point{d=%d of %d}", p.count, len(p.bits))
}

// SortedVars returns the selected variables sorted by variable index.
func (p Point) SortedVars() []cnf.Var {
	vars := p.Vars()
	sort.Slice(vars, func(i, j int) bool { return vars[i] < vars[j] })
	return vars
}

// Family is the decomposition family Δ_C(X̃) induced by a decomposition set
// over a CNF formula.  A member C[X̃/α] is written as the assumption
// literals of α, solved on a solver built once from C; the family itself
// never materialises all 2^d members.
type Family struct {
	formula *cnf.Formula
	vars    []cnf.Var
}

// NewFamily creates the decomposition family of the formula for the given
// decomposition set (order of vars determines the meaning of assignment
// indices).
func NewFamily(f *cnf.Formula, vars []cnf.Var) *Family {
	return &Family{formula: f, vars: append([]cnf.Var(nil), vars...)}
}

// FamilyOf is a convenience constructing the family from a point.
func FamilyOf(f *cnf.Formula, p Point) *Family { return NewFamily(f, p.Vars()) }

// Dimension returns d = |X̃|.
func (fam *Family) Dimension() int { return len(fam.vars) }

// Size returns 2^d as a float64 (d can exceed 63 for the full cipher
// instances, so the exact integer may not be representable).
func (fam *Family) Size() float64 { return math.Exp2(float64(len(fam.vars))) }

// SizeUint returns 2^d as an integer; it panics if d >= 63, callers must
// check Dimension first (enumeration is only meaningful for small d).
func (fam *Family) SizeUint() uint64 {
	if len(fam.vars) >= 63 {
		panic("decomp: family too large to enumerate")
	}
	return uint64(1) << uint(len(fam.vars))
}

// Vars returns the decomposition set variables in family order.
func (fam *Family) Vars() []cnf.Var { return append([]cnf.Var(nil), fam.vars...) }

// Formula returns the underlying formula C.
func (fam *Family) Formula() *cnf.Formula { return fam.formula }

// AssumptionsFor converts an index into the corresponding truth assignment α
// of the decomposition set, expressed as assumption literals (bit i of index
// gives the value of vars[i]; bit=1 means true).
func (fam *Family) AssumptionsFor(index uint64) []cnf.Lit {
	return fam.AssumptionsInto(make([]cnf.Lit, len(fam.vars)), index)
}

// AssumptionsInto writes AssumptionsFor(index) into dst, which must have room
// for Dimension() literals, and returns dst[:Dimension()], as DrawAssumptions
// does for a random member.
func (fam *Family) AssumptionsInto(dst []cnf.Lit, index uint64) []cnf.Lit {
	dst = dst[:len(fam.vars)]
	for i, v := range fam.vars {
		dst[i] = cnf.NewLit(v, index&(1<<uint(i)) != 0)
	}
	return dst
}

// AssumptionsForBits converts an explicit assignment α (one bool per
// decomposition variable) into assumption literals.
func (fam *Family) AssumptionsForBits(alpha []bool) ([]cnf.Lit, error) {
	if len(alpha) != len(fam.vars) {
		return nil, fmt.Errorf("decomp: assignment has %d bits, want %d", len(alpha), len(fam.vars))
	}
	out := make([]cnf.Lit, len(fam.vars))
	for i, v := range fam.vars {
		out[i] = cnf.NewLit(v, alpha[i])
	}
	return out, nil
}

// draw is the Monte Carlo sampler's one draw of a truth assignment α: a
// uniformly random value for each decomposition variable, one rng.Intn(2) a
// variable in family order, handed to set as it is drawn.
func (fam *Family) draw(rng *rand.Rand, set func(i int, value bool)) {
	for i := range fam.vars {
		set(i, rng.Intn(2) == 1)
	}
}

// DrawAssumptions draws α straight into assumption literals, the form a
// subproblem is solved in.  dst must have room for Dimension() literals; the
// draw is written there and dst[:Dimension()] returned, so that a caller
// sampling many members can cut them all from one array.  The literals are
// those of AssumptionsForBits(RandomAssignment(rng)), from the same calls on
// rng.
func (fam *Family) DrawAssumptions(dst []cnf.Lit, rng *rand.Rand) []cnf.Lit {
	dst = dst[:len(fam.vars)]
	fam.draw(rng, func(i int, value bool) { dst[i] = cnf.NewLit(fam.vars[i], value) })
	return dst
}

// RandomAssignment draws α as one bool per decomposition variable.
func (fam *Family) RandomAssignment(rng *rand.Rand) []bool {
	alpha := make([]bool, len(fam.vars))
	fam.draw(rng, func(i int, value bool) { alpha[i] = value })
	return alpha
}
