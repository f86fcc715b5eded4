package pdsat

import (
	"math"
	"math/rand"
	"testing"

	"github.com/paper-repro/pdsat-go/internal/montecarlo"
)

// TestEq3IntervalCoversExactFamilyCost is the first test of the paper's claim
// rather than of reproducibility (PAPER.md §2, eq. 2–4): the CLT interval of
// eq. 3 around F = 2^d · mean contains the true family cost t_C(X̃) with
// probability γ.  The truth is a committed cost table (oracle_test.go): every
// member of a 2^8 family solved as an evaluation solves it, its cost in
// propagations counting the solver's construction baseline.  Over 2000
// seeds, N costs are drawn from it with replacement — what random sampling of
// the family is — and go through the estimator's own code (NewSample,
// NewEstimate, ConfidenceInterval); the share of intervals that contain the
// exact total is the coverage, and a binomial standard error says how far
// from nominal 2000 draws may put it.  Two families:
//
//   - The bench's Bivium instance (keystream 200, KnownSuffix 57), its first
//     eight unknown start variables varied and the other 112 assumed behind
//     them at fixed random values: subproblems of about a thousand
//     propagations and two or three conflicts, a light-tailed ξ.  (Varying
//     the last eight is no family: the conflict comes before them and all 256
//     members cost the same.)  Here N = 100 must cover within three standard
//     errors of γ = 0.95.
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

	for i, fam := range []struct {
		// nominalFrom is the N from which coverage at γ = 0.95 must be within
		// three standard errors of nominal; floor bounds it below that N.
		nominalFrom int
		floor       float64
	}{{100, 0}, {1000, 0.90}} {
		t.Run(costTableFamilies[i].name, func(t *testing.T) {
			table := loadCostTable(t, costTableFamilies[i].file)
			costs := table.costs()
			conflicts := uint64(0)
			for _, member := range table.Members {
				conflicts += member.Stats.Conflicts
			}
			sample := montecarlo.NewSample(costs)
			if conflicts == 0 || sample.StdDev() == 0 {
				t.Fatalf("the family has %d conflicts and cost spread %v: no landscape to sample", conflicts, sample.StdDev())
			}
			t.Logf("family of %d: %d conflicts; cost in propagations: mean %.1f, stddev %.1f, min %.0f, max %.0f",
				len(costs), conflicts, sample.Mean(), sample.StdDev(), sample.Min(), sample.Max())
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
