package pdsat

import (
	"math"
	"math/rand"
	"testing"

	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/encoder"
	"github.com/paper-repro/pdsat-go/internal/montecarlo"
	"github.com/paper-repro/pdsat-go/internal/solver"
)

// enumerateFamily solves every member of the 2^d family over the variables
// free, each followed by the assumptions rest, with the real solver as a
// worker runs it (Reset, assume, solve), and returns the cost of each member
// in propagations and the conflicts of all.
func enumerateFamily(t *testing.T, f *cnf.Formula, free []cnf.Var, rest []cnf.Lit) (costs []float64, conflicts uint64) {
	t.Helper()
	s := solver.NewDefault(f)
	costs = make([]float64, 1<<len(free))
	a := make([]cnf.Lit, len(free), len(free)+len(rest))
	a = append(a, rest...)
	for alpha := range costs {
		for k, v := range free {
			a[k] = cnf.NewLit(v, alpha>>k&1 == 1)
		}
		s.Reset()
		res := s.SolveWithAssumptions(a)
		if res.Status == solver.Unknown {
			t.Fatalf("member %d of the family was not decided", alpha)
		}
		costs[alpha] = solver.EffortCost(res.Stats, solver.CostPropagations)
		conflicts += res.Stats.Conflicts
	}
	return costs, conflicts
}

// TestEq3IntervalCoversExactFamilyCost is the first test of the paper's claim
// rather than of reproducibility (PAPER.md §2, eq. 2–4): the CLT interval of
// eq. 3 around F = 2^d · mean contains the true family cost t_C(X̃) with
// probability γ.  The truth is a table: a 2^8 family enumerated exactly.  Over
// 2000 seeds, N costs are drawn from it with replacement — what random
// sampling of the family is — and go through the estimator's own code
// (NewSample, NewEstimate, ConfidenceInterval); the share of intervals that
// contain the exact total is the coverage, and a binomial standard error says
// how far from nominal 2000 draws may put it.  Two families:
//
//   - The bench's Bivium instance (keystream 200, KnownSuffix 57), its first
//     eight unknown start variables varied and the other 112 assumed behind
//     them at fixed random values: subproblems of a few hundred propagations
//     and two or three conflicts, a light-tailed ξ.  (Varying the last eight
//     is no family: the conflict comes before them and all 256 members cost
//     the same.)  Here N = 100 must cover within three standard errors of
//     γ = 0.95.
//   - Weakened A5/1 (keystream 96, KnownSuffix 44), its last eight unknown
//     start variables varied and the other twelve left to CDCL: a heavy-tailed
//     ξ (σ twice the mean, one member fifteen times the mean), the case
//     bench/README.md's findings describe.  The interval is short of nominal
//     at N = 100 — read 0.9265 — and within three standard errors from
//     N = 1000; the test holds it to that and to a floor of 0.90 at N = 100.
//
// Every cell is logged; README ("How good is the estimate") records them.
func TestEq3IntervalCoversExactFamilyCost(t *testing.T) {
	const seeds = 2000
	// coverage returns the share of seeds whose interval contains the exact
	// total, and the binomial standard error of that share at nominal.
	coverage := func(costs []float64, n int, gamma float64) (share, stderr float64) {
		exact := montecarlo.NewSample(costs).Mean() * float64(len(costs))
		covered := 0
		drawn := make([]float64, n)
		for seed := int64(0); seed < seeds; seed++ {
			rng := rand.New(rand.NewSource(seed))
			for i := range drawn {
				drawn[i] = costs[rng.Intn(len(costs))]
			}
			iv, err := montecarlo.NewEstimate(8, montecarlo.NewSample(drawn)).ConfidenceInterval(gamma)
			if err != nil {
				t.Fatal(err)
			}
			if iv.Contains(exact) {
				covered++
			}
		}
		return float64(covered) / seeds, math.Sqrt(gamma * (1 - gamma) / seeds)
	}

	bivium := weakBivium(t, 57, 200, 7)
	bvars := bivium.UnknownStartVars()
	rng := rand.New(rand.NewSource(0))
	var rest []cnf.Lit
	for _, v := range bvars[8:] {
		rest = append(rest, cnf.NewLit(v, rng.Intn(2) == 0))
	}
	a51, err := encoder.NewInstance(encoder.A51(), encoder.Config{KeystreamLen: 96, KnownSuffix: 44, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	avars := a51.UnknownStartVars()

	for _, fam := range []struct {
		name string
		f    *cnf.Formula
		free []cnf.Var
		rest []cnf.Lit
		// nominalFrom is the N from which coverage at γ = 0.95 must be within
		// three standard errors of nominal; floor bounds it below that N.
		nominalFrom int
		floor       float64
	}{
		{"bivium", bivium.CNF, bvars[:8], rest, 100, 0},
		{"a5/1", a51.CNF, avars[len(avars)-8:], nil, 1000, 0.90},
	} {
		t.Run(fam.name, func(t *testing.T) {
			costs, conflicts := enumerateFamily(t, fam.f, fam.free, fam.rest)
			table := montecarlo.NewSample(costs)
			if conflicts == 0 || table.StdDev() == 0 {
				t.Fatalf("the family has %d conflicts and cost spread %v: no landscape to sample", conflicts, table.StdDev())
			}
			t.Logf("family of %d: %d conflicts; cost in propagations: mean %.1f, stddev %.1f, min %.0f, max %.0f",
				len(costs), conflicts, table.Mean(), table.StdDev(), table.Min(), table.Max())
			for _, n := range []int{25, 100, 1000} {
				for _, gamma := range []float64{0.95, 0.99} {
					got, stderr := coverage(costs, n, gamma)
					t.Logf("N = %4d, γ = %.2f: coverage %.4f over %d seeds (nominal ± 3 standard errors: %.4f … %.4f)",
						n, gamma, got, seeds, gamma-3*stderr, gamma+3*stderr)
					if gamma != 0.95 {
						continue
					}
					switch {
					case n >= fam.nominalFrom && math.Abs(got-gamma) > 3*stderr:
						t.Errorf("N = %d, γ = %.2f: coverage %.4f is more than three standard errors (%.4f each) from nominal", n, gamma, got, stderr)
					case n == 100 && got < fam.floor:
						t.Errorf("N = %d, γ = %.2f: coverage %.4f, want at least %.2f", n, gamma, got, fam.floor)
					}
				}
			}
		})
	}
}
