// Package cnfgen generates classic CNF benchmark families used by the tests
// and benchmarks of this repository: random k-SAT and pigeonhole-principle
// instances.
//
// These generators are not part of the paper itself; they exercise the SAT
// substrate independently of the cryptographic encodings and provide easy /
// hard / UNSAT instances of controllable size.
package cnfgen

import (
	"fmt"
	"math/rand"

	"github.com/paper-repro/pdsat-go/internal/cnf"
)

// RandomKSAT returns a uniformly random k-SAT formula with the given number
// of variables and clauses.  Literals within a clause are drawn
// independently (duplicate variables may occur, as in the standard fixed
// clause-length model).
func RandomKSAT(rng *rand.Rand, k, numVars, numClauses int) (*cnf.Formula, error) {
	if k <= 0 || numVars <= 0 || numClauses < 0 {
		return nil, fmt.Errorf("cnfgen: invalid k-SAT parameters k=%d vars=%d clauses=%d", k, numVars, numClauses)
	}
	f := cnf.New(numVars)
	for i := 0; i < numClauses; i++ {
		c := make(cnf.Clause, k)
		for j := range c {
			c[j] = cnf.NewLit(cnf.Var(rng.Intn(numVars)+1), rng.Intn(2) == 0)
		}
		f.AddClause(c)
	}
	return f, nil
}

// Random3SAT returns a random 3-SAT formula at the given clause/variable
// ratio (the phase transition is near 4.27).
func Random3SAT(rng *rand.Rand, numVars int, ratio float64) (*cnf.Formula, error) {
	return RandomKSAT(rng, 3, numVars, int(ratio*float64(numVars)))
}

// Pigeonhole returns the pigeonhole-principle CNF PHP(pigeons, holes):
// every pigeon sits in some hole and no hole hosts two pigeons.  It is
// satisfiable iff pigeons <= holes; PHP(n+1, n) requires exponentially long
// resolution proofs and is the classic stress test for clause learning.
func Pigeonhole(pigeons, holes int) (*cnf.Formula, error) {
	if pigeons <= 0 || holes <= 0 {
		return nil, fmt.Errorf("cnfgen: invalid pigeonhole parameters p=%d h=%d", pigeons, holes)
	}
	v := func(i, j int) cnf.Lit { return cnf.Lit(i*holes + j + 1) }
	f := cnf.New(pigeons * holes)
	for i := 0; i < pigeons; i++ {
		c := make(cnf.Clause, 0, holes)
		for j := 0; j < holes; j++ {
			c = append(c, v(i, j))
		}
		f.AddClause(c)
	}
	for j := 0; j < holes; j++ {
		for i1 := 0; i1 < pigeons; i1++ {
			for i2 := i1 + 1; i2 < pigeons; i2++ {
				f.AddClauseLits(-v(i1, j), -v(i2, j))
			}
		}
	}
	return f, nil
}
