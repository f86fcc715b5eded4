package optimize

// The neighbourhood loops of the two metaheuristics.  Both take their
// candidates one at a time, each drawn (draw) just before it is evaluated:
// each fresh evaluation follows a budget check, runs against the search's
// incumbent and draws the next evaluation slot, and the next candidate is
// drawn only after the search has taken in the last.  The fixed-seed traces
// recorded in testdata rest on exactly this order.

import (
	"context"
	"errors"

	"github.com/paper-repro/pdsat-go/internal/decomp"
)

// Neighborhood summarizes one completed neighbourhood pass of a search: a
// whole tabu neighbourhood, or one candidate of the simulated annealing.
type Neighborhood struct {
	// Center is the pass's neighbourhood centre; Radius its radius.
	Center decomp.Point
	Radius int
	// Candidates is the number of candidates the pass had to draw from
	// when it began: in a tabu neighbourhood its points without a value, in
	// an annealing pass 1.  Evaluated is how many were freshly evaluated
	// (value-cache hits within the search are excluded), Pruned how many of
	// those the incumbent bound cut short, and Cancelled how many were left
	// unvisited because the search stopped during the pass (in a tabu
	// neighbourhood Candidates − Evaluated).
	Candidates int
	Evaluated  int
	Pruned     int
	Cancelled  int
	// Improved reports whether the pass improved the search's best value,
	// which BestValue reports as of the end of the pass.
	Improved  bool
	BestValue float64
}

// observeNeighborhood reports a completed pass to the configured observer.
func (s *search) observeNeighborhood(nb Neighborhood) {
	if s.opts.NeighborhoodObserver != nil {
		s.opts.NeighborhoodObserver(nb)
	}
}

// incumbent is what an evaluation prunes against: the search's best value,
// tightened by the fleet's shared incumbent when coupled.
func (s *search) incumbent() float64 {
	if s.opts.Shared != nil {
		if b := s.opts.Shared.Best(); b < s.bestValue {
			return b
		}
	}
	return s.bestValue
}

// draw is how both searches pick their next candidate, just before they
// evaluate it: one pseudo-random pick among the candidates skip does not
// rule out, in neighbourhood order.  left is how many there were to pick
// from; when it is 0 there is no candidate.  The tabu search skips every
// point that has a value (its tabu lists make "checked anywhere" the same as
// "valued"); the annealing skips the points checked from its current centre,
// and re-visits points valued from earlier centres out of the search's value
// cache, without an evaluation.
func (s *search) draw(candidates []decomp.Point, skip func(key string) bool) (chi decomp.Point, left int) {
	unchecked := make([]decomp.Point, 0, len(candidates))
	for _, c := range candidates {
		if !skip(c.Key()) {
			unchecked = append(unchecked, c)
		}
	}
	if len(unchecked) == 0 {
		return decomp.Point{}, 0
	}
	return unchecked[s.rng.Intn(len(unchecked))], len(unchecked)
}

// evaluate is one fresh evaluation of chi against the incumbent, made after a
// budget check (so a search whose context is already cancelled draws no
// slot); what it yields is kept in the search's values.  A cancellation
// racing past the budget check becomes a graceful StopContext (best-so-far
// result) instead of failing the search; any other error is a hard one.
func (s *search) evaluate(ctx context.Context, chi decomp.Point, incumbent float64) (valued, error) {
	if err := s.checkBudgets(ctx); err != nil {
		return valued{}, err
	}
	ev, err := s.obj.EvaluateF(ctx, chi, incumbent)
	if err != nil {
		if ctx.Err() != nil || errors.Is(err, context.Canceled) {
			s.stopped = StopContext
			return valued{}, errStop
		}
		return valued{}, err
	}
	v := valued{value: ev.Value, pruned: ev.Pruned, censored: ev.SamplesCensored > 0}
	s.values[chi.Key()] = v
	s.evals++
	return v, nil
}

// tabuNeighborhood checks one whole tabu neighbourhood and reports whether
// it improved the best value.  A returned errStop ends the search
// gracefully (the stop reason is already recorded); other errors are hard
// failures.
func (s *search) tabuNeighborhood(ctx context.Context, tl *tabuLists, center decomp.Point) (bool, error) {
	candidates := neighbors(center, s.opts.Radius)
	known := func(key string) bool {
		_, ok := s.values[key]
		return ok
	}
	stats := Neighborhood{Center: center, Radius: s.opts.Radius}
	var err error
	for {
		// draw skips every valued point, so each candidate is a fresh
		// evaluation, and the first draw sees the whole pass.
		chi, left := s.draw(candidates, known)
		if left == 0 {
			break
		}
		stats.Candidates = max(stats.Candidates, left)
		var v valued
		if v, err = s.evaluate(ctx, chi, s.incumbent()); err != nil {
			break
		}
		tl.addChecked(chi, v.cost(), s.values)
		stats.Evaluated++
		if v.pruned {
			stats.Pruned++
		}
		if _, improved := s.take(chi, v, false); improved {
			stats.Improved = true
		}
		if err = s.checkBudgets(ctx); err != nil {
			break
		}
	}
	if stats.Candidates == 0 {
		return false, nil
	}
	stats.Cancelled = stats.Candidates - stats.Evaluated
	stats.BestValue = s.bestValue
	s.observeNeighborhood(stats)
	return stats.Improved, err
}

// anneal is the simulated annealing's main loop: draw a candidate, evaluate
// it, accept it or not, cool.  Each candidate is a pass of its own.
func (s *search) anneal(ctx context.Context, center decomp.Point, centerValue valued, temperature float64) (*Result, error) {
	opts := s.opts
	for {
		if err := s.checkBudgets(ctx); err != nil {
			return s.finish(err)
		}
		if temperature < opts.MinTemperature {
			s.stopped = StopTemperature
			return s.finish(nil)
		}

		moved := false
		radius := opts.Radius
		checked := map[string]bool{center.Key(): true}
		isChecked := func(key string) bool { return checked[key] }
		for !moved {
			next, left := s.draw(neighbors(center, radius), isChecked)
			if left == 0 {
				// Neighbourhood exhausted at this radius.
				if radius < opts.MaxRadius {
					radius++
					continue
				}
				s.stopped = StopNoImprovement
				return s.finish(nil)
			}
			stats := Neighborhood{
				Center:     center,
				Radius:     radius,
				Candidates: 1,
			}
			key := next.Key()
			v, cached := s.values[key]
			if !cached {
				var err error
				if v, err = s.evaluate(ctx, next, s.incumbent()); err != nil {
					stats.Cancelled, stats.BestValue = 1, s.bestValue
					s.observeNeighborhood(stats)
					return s.finish(err)
				}
				stats.Evaluated = 1
			}
			checked[key] = true
			if v.pruned {
				stats.Pruned = 1
			}
			// A pruned or censored point ranks at +Inf and is never accepted
			// over a point that ranks finite.
			moved, stats.Improved = s.take(next, v, s.pointAccepted(v.cost(), centerValue.cost(), temperature))
			stop := false
			if moved {
				center, centerValue = next, v
			} else if left == 1 {
				// That was the last unchecked candidate at this radius.
				radius++
				if radius > opts.MaxRadius {
					s.stopped, stop = StopNoImprovement, true
				}
			}
			temperature *= opts.CoolingFactor
			if !stop && temperature < opts.MinTemperature {
				s.stopped, stop = StopTemperature, true
			}
			stop = stop || s.checkBudgets(ctx) != nil
			stats.BestValue = s.bestValue
			s.observeNeighborhood(stats)
			if stop {
				return s.finish(nil)
			}
		}
	}
}
