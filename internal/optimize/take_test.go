package optimize

import (
	"context"
	"math/rand"
	"testing"

	"github.com/paper-repro/pdsat-go/internal/decomp"
	"github.com/paper-repro/pdsat-go/internal/eval"
)

// tableObjective is a cost table over every non-empty point of a space,
// drawn once from a seeded generator.  About one point in five is censored:
// its value is a low restricted-mean bound with SamplesCensored set, as a
// sample capped at a per-subproblem budget reads.  The start point (the full
// set) never is.  It prunes the way the engine's partial sum does, late: a
// value above the incumbent comes back pruned, valued at the incumbent, only
// past 1.5 times the incumbent, so a visit may return unpruned above the
// incumbent, as an early-stopped estimate or a cache hit may.
type tableObjective struct {
	values   map[string]float64
	censored map[string]bool
}

func newTableObjective(space *decomp.Space, seed int64) *tableObjective {
	rng := rand.New(rand.NewSource(seed))
	o := &tableObjective{values: map[string]float64{}, censored: map[string]bool{}}
	n := space.Size()
	for m := 1; m < 1<<n; m++ {
		p := space.EmptyPoint()
		for k := 0; k < n; k++ {
			if m>>k&1 == 1 {
				p = p.Flip(k)
			}
		}
		key := p.Key()
		o.values[key] = 100 + 900*rng.Float64()
		if m != 1<<n-1 && rng.Intn(5) == 0 {
			o.values[key], o.censored[key] = 1+10*rng.Float64(), true
		}
	}
	return o
}

func (o *tableObjective) EvaluateF(_ context.Context, p decomp.Point, incumbent float64) (*eval.Evaluation, error) {
	key := p.Key()
	v := o.values[key]
	switch {
	case o.censored[key]:
		return &eval.Evaluation{Value: v, SamplesCensored: 1}, nil
	case v <= 1.5*incumbent:
		return &eval.Evaluation{Value: v}, nil
	}
	return &eval.Evaluation{Value: incumbent, Pruned: true}, nil
}

// TestTakeIsTheOneJudgement holds both algorithms, alone and as the members
// of a pruning fleet sharing one incumbent, to the one rule take applies to
// every visit: the result's best is the last visit marked Improved; no pruned
// and no censored visit is Improved, though censored points carry the
// lowest values of the table; and an improving visit is always accepted.
func TestTakeIsTheOneJudgement(t *testing.T) {
	space := makeSpace(7)
	obj := newTableObjective(space, 3)
	for _, alg := range []struct {
		name   string
		search func(context.Context, Objective, decomp.Point, Options) (*Result, error)
		opts   Options
	}{
		{"tabu", TabuSearch, Options{Seed: 5, MaxEvaluations: 60}},
		{"sa", SimulatedAnnealing, Options{Seed: 5, MaxEvaluations: 60, InitialTemperature: 300, CoolingFactor: 0.99}},
	} {
		for _, members := range []int{1, 4} {
			var shared *Incumbent
			if members > 1 {
				shared = NewIncumbent()
			}
			pruned, censored := 0, 0
			for m := range members {
				opts := alg.opts
				opts.Seed += int64(m)
				if shared != nil {
					opts.Shared = shared.MemberView(m)
				}
				res, err := alg.search(context.Background(), obj, space.FullPoint(), opts)
				if err != nil {
					t.Fatal(err)
				}
				var last Visit
				for _, v := range res.Trace {
					if v.Pruned {
						pruned++
					}
					if obj.censored[v.Point.Key()] {
						censored++
					}
					if !v.Improved {
						continue
					}
					if v.Pruned || obj.censored[v.Point.Key()] || !v.Accepted {
						t.Fatalf("%s, member %d of %d: visit %d %+v is Improved", alg.name, m, members, v.Index, v)
					}
					last = v
				}
				if res.BestPoint.Key() != last.Point.Key() || res.BestValue != last.Value {
					t.Fatalf("%s, member %d of %d: best %v at %v, last improving visit %v at %v",
						alg.name, m, members, res.BestPoint.SortedVars(), res.BestValue, last.Point.SortedVars(), last.Value)
				}
			}
			if pruned == 0 || censored == 0 {
				t.Fatalf("%s, %d members: %d pruned and %d censored visits; the test needs both", alg.name, members, pruned, censored)
			}
		}
	}
}
