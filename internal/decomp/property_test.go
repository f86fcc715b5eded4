package decomp

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/paper-repro/pdsat-go/internal/cnf"
)

// propertySpaces are the table of space shapes the point-algebra properties
// are checked over; each is combined with several RNG seeds.
var propertySpaces = []struct {
	name string
	vars []cnf.Var
}{
	{"small-dense", []cnf.Var{1, 2, 3, 4, 5}},
	{"sparse", []cnf.Var{3, 17, 4, 99, 12, 7, 41}},
	{"duplicates", []cnf.Var{5, 5, 2, 9, 2, 9, 1}},
	{"wide", func() []cnf.Var {
		vars := make([]cnf.Var, 40)
		for i := range vars {
			vars[i] = cnf.Var(2*i + 1)
		}
		return vars
	}()},
}

// randomPoints draws a deterministic mix of random, empty and full points.
func randomPoints(s *Space, seed int64, n int) []Point {
	rng := rand.New(rand.NewSource(seed))
	points := []Point{s.EmptyPoint(), s.FullPoint()}
	for len(points) < n {
		points = append(points, s.RandomPoint(rng, rng.Float64()))
	}
	return points
}

// TestFlipIsInvolution checks Flip's algebra at random points: flipping the
// same bit twice restores the point exactly (bits, count and key), and one
// flip moves the point to Hamming distance 1 with the count changing by ±1.
func TestFlipIsInvolution(t *testing.T) {
	for _, tc := range propertySpaces {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSpace(tc.vars)
			for seed := int64(1); seed <= 5; seed++ {
				rng := rand.New(rand.NewSource(seed))
				for _, p := range randomPoints(s, seed, 8) {
					i := rng.Intn(s.Size())
					q := p.Flip(i)
					if q.HammingDistance(p) != 1 {
						t.Fatalf("seed %d: Flip(%d) moved Hamming distance %d", seed, i, q.HammingDistance(p))
					}
					if d := q.Count() - p.Count(); d != 1 && d != -1 {
						t.Fatalf("seed %d: Flip(%d) changed count by %d", seed, i, d)
					}
					r := q.Flip(i)
					if !r.Equal(p) || r.Key() != p.Key() || r.Count() != p.Count() {
						t.Fatalf("seed %d: Flip(%d) is not an involution at %s", seed, i, p.Key())
					}
					// The original point is untouched (points are immutable).
					if q.Equal(p) {
						t.Fatalf("seed %d: Flip(%d) returned an equal point", seed, i)
					}
				}
			}
		})
	}
}

// TestSortedVarsSortedAndDeduped checks SortedVars at random points: the
// result is strictly increasing (hence duplicate-free), matches Count, and
// contains exactly the selected variables.
func TestSortedVarsSortedAndDeduped(t *testing.T) {
	for _, tc := range propertySpaces {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSpace(tc.vars)
			for seed := int64(1); seed <= 5; seed++ {
				for _, p := range randomPoints(s, seed, 8) {
					vars := p.SortedVars()
					if len(vars) != p.Count() {
						t.Fatalf("seed %d: %d sorted vars for count %d", seed, len(vars), p.Count())
					}
					if !sort.SliceIsSorted(vars, func(i, j int) bool { return vars[i] < vars[j] }) {
						t.Fatalf("seed %d: SortedVars not sorted: %v", seed, vars)
					}
					for i := 1; i < len(vars); i++ {
						if vars[i] == vars[i-1] {
							t.Fatalf("seed %d: duplicate variable %d in %v", seed, vars[i], vars)
						}
					}
					for _, v := range vars {
						if !p.Has(v) {
							t.Fatalf("seed %d: SortedVars lists unselected variable %d", seed, v)
						}
					}
				}
			}
		})
	}
}

// TestDrawAssumptionsIsTheHistoricDraw pins the sampler's bits.  An
// evaluation's sample is a function of (scope seed, slot) through exactly
// these calls, so for every seed and dimension DrawAssumptions must write the
// literals that drawing α as bools — one rng.Intn(2) a variable, as the
// sampler always has — and converting them gives, through RandomAssignment and
// AssumptionsForBits too, and leave the generator where they leave it.
func TestDrawAssumptionsIsTheHistoricDraw(t *testing.T) {
	for _, d := range []int{1, 8, 30, 120} {
		vars := make([]cnf.Var, d)
		for i := range vars {
			vars[i] = cnf.Var(1 + (i*37)%(2*d+1)) // scattered, not ascending
		}
		fam := NewFamily(cnf.New(2*d+1), vars)
		for seed := int64(-3); seed <= 40; seed++ {
			historic, wrapped, drawn := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			dst := make([]cnf.Lit, d+3) // room to spare: the draw fills d
			for sample := 0; sample < 5; sample++ {
				alpha := make([]bool, d)
				for i := range alpha {
					alpha[i] = historic.Intn(2) == 1
				}
				want, err := fam.AssumptionsForBits(alpha)
				if err != nil {
					t.Fatal(err)
				}
				viaBools, err := fam.AssumptionsForBits(fam.RandomAssignment(wrapped))
				if err != nil {
					t.Fatal(err)
				}
				got := fam.DrawAssumptions(dst, drawn)
				if !slices.Equal(got, want) || !slices.Equal(viaBools, want) {
					t.Fatalf("d=%d seed %d sample %d: DrawAssumptions %v, RandomAssignment %v, historic draw %v", d, seed, sample, got, viaBools, want)
				}
			}
			if h, w, g := historic.Int63(), wrapped.Int63(), drawn.Int63(); h != g || w != g {
				t.Fatalf("d=%d seed %d: the generators part ways after the draws: %d, %d, %d", d, seed, h, w, g)
			}
		}
	}
}

// TestRadiusOneNeighborhoodSize checks the paper's ρ=1 neighbourhood at
// random points: it has exactly |X̃_start| members (one per candidate
// variable — the space's size, not the point's), all pairwise distinct and
// at Hamming distance exactly 1.
func TestRadiusOneNeighborhoodSize(t *testing.T) {
	for _, tc := range propertySpaces {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSpace(tc.vars)
			for seed := int64(1); seed <= 5; seed++ {
				for _, p := range randomPoints(s, seed, 8) {
					neighbors := p.Neighbors(1)
					if len(neighbors) != s.Size() {
						t.Fatalf("seed %d: radius-1 neighbourhood of %s has %d members, want %d",
							seed, p.Key(), len(neighbors), s.Size())
					}
					seen := map[string]bool{}
					for _, q := range neighbors {
						if q.HammingDistance(p) != 1 {
							t.Fatalf("seed %d: neighbour at distance %d", seed, q.HammingDistance(p))
						}
						if seen[q.Key()] {
							t.Fatalf("seed %d: duplicate neighbour %s", seed, q.Key())
						}
						seen[q.Key()] = true
					}
				}
			}
		})
	}
}
