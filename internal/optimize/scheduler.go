package optimize

// The neighbourhood loops of the two metaheuristics.  Both evaluate their
// candidates in pre-drawn sequences ("waves"), and every wave — the start
// point is a wave of one — goes to an eval.Frontier of
// Options.MaxConcurrentEvals width, which is the only evaluation loop.
//
// The tabu search pre-draws the visit order of a whole neighbourhood — one
// RNG draw per candidate over the not-yet-drawn unchecked ones, which is
// how the recorded fixed-seed traces were drawn — and walks it in that
// order.  At width 1 the frontier's sequential loop evaluates the candidates
// one at a time, each drawing the next evaluation slot, with the budgets
// checked before each.  Above 1 up to `width` candidate evaluations run
// concurrently on the transport, the live best value is threaded into every
// one (siblings prune each other as results stream back), and results are
// processed strictly in visit order.  The simulated annealing speculates in
// waves of `width` pre-drawn candidates; an acceptance decides the wave, and
// the in-flight rest is cancelled and discarded whole.
//
// Determinism rule.  Pre-reserved evaluation slots make every candidate's
// Monte Carlo sample a pure function of (scope seed, slot), so full
// estimates are scheduling-independent, and the minimum-F candidate of a
// neighbourhood can never be pruned by the live bound (its partial lower
// bound cannot exceed its own full estimate, the smallest value any
// sibling can install; pruning requires strictly exceeding the bound).
// Selected centres and the reported best F are therefore independent of
// completion order.  What remains scheduling-dependent under an active
// policy is which non-winning candidates get pruned (and the lower-bound
// values they report), subproblem solved/aborted counts, conflict
// activity absorbed from truncated solves — and, for the annealing, which
// discarded wave members completed early enough to land in the F-cache.
// For strict run-to-run reproducibility of full traces at widths above 1,
// switch Prune and Cache off, exactly as with fleet races.

import (
	"context"
	"errors"

	"github.com/paper-repro/pdsat-go/internal/decomp"
	"github.com/paper-repro/pdsat-go/internal/eval"
)

// Neighborhood summarizes one completed neighbourhood pass of a search: a
// whole tabu neighbourhood, or one speculative wave of the simulated
// annealing.
type Neighborhood struct {
	// Center is the pass's neighbourhood centre; Radius its radius.
	Center decomp.Point
	Radius int
	// Candidates is the number of candidates drawn for the pass;
	// Evaluated how many were freshly evaluated (value-cache hits within
	// the search are excluded), Pruned how many of those the incumbent
	// bound cut short, and Cancelled how many were discarded unprocessed
	// when the pass's outcome was decided early.
	Candidates int
	Evaluated  int
	Pruned     int
	Cancelled  int
	// Improved reports whether the pass improved the search's best value,
	// which BestValue reports as of the end of the pass.
	Improved  bool
	BestValue float64
	// Width is the in-flight evaluation cap (Options.MaxConcurrentEvals).
	Width int
}

// observeNeighborhood reports a completed pass to the configured observer.
func (s *search) observeNeighborhood(nb Neighborhood) {
	if s.opts.NeighborhoodObserver != nil {
		s.opts.NeighborhoodObserver(nb)
	}
}

// frontierBound seeds a wave's live incumbent bound from the search's best
// value, tightened by the fleet's shared incumbent when coupled.
func (s *search) frontierBound(bestValue float64) *eval.Bound {
	b := eval.NewBound(bestValue)
	if s.opts.Shared != nil {
		b.Lower(s.opts.Shared.Best())
	}
	return b
}

// drawTabuOrder pre-draws the complete visit order of one tabu
// neighbourhood: repeatedly one pseudo-random pick among the candidates
// that have no cached value (the tabu lists make "checked anywhere"
// equivalent to "has a cached value") and are not drawn yet.  Drawing
// everything ahead is the same as drawing before each evaluation, because
// an evaluation never touches the RNG and the tabu search always exhausts a
// neighbourhood it enters — the only early exits end the whole search,
// after which the RNG is never read again.
func (s *search) drawTabuOrder(candidates []decomp.Point) []decomp.Point {
	taken := make(map[string]bool, len(candidates))
	order := make([]decomp.Point, 0, len(candidates))
	for {
		unchecked := make([]decomp.Point, 0, len(candidates))
		for _, c := range candidates {
			key := c.Key()
			if taken[key] {
				continue
			}
			if _, seen := s.values[key]; seen {
				continue
			}
			unchecked = append(unchecked, c)
		}
		if len(unchecked) == 0 {
			return order
		}
		pick := unchecked[s.rng.Intn(len(unchecked))]
		taken[pick.Key()] = true
		order = append(order, pick)
	}
}

// drawWave pre-draws up to k distinct candidates for the annealing, one
// pseudo-random pick at a time among those not in the checked set (which,
// unlike the tabu filter, resets per centre and admits re-visits of points
// valued in earlier neighbourhoods — those are served from the search's
// value cache without an evaluation).
func (s *search) drawWave(candidates []decomp.Point, checked map[string]bool, k int) []decomp.Point {
	wave := make([]decomp.Point, 0, k)
	taken := make(map[string]bool, k)
	for len(wave) < k {
		unchecked := make([]decomp.Point, 0, len(candidates))
		for _, c := range candidates {
			key := c.Key()
			if checked[key] || taken[key] {
				continue
			}
			unchecked = append(unchecked, c)
		}
		if len(unchecked) == 0 {
			break
		}
		pick := unchecked[s.rng.Intn(len(unchecked))]
		taken[pick.Key()] = true
		wave = append(wave, pick)
	}
	return wave
}

// waveHandler processes one wave member, in visit order, on the search's
// goroutine.  fresh reports a real evaluation (false for value-cache
// hits).  It returns stop=true to end the wave (the scheduler cancels and
// discards the in-flight rest); a non-nil error — errStop for recorded
// graceful stops — ends the whole search.
type waveHandler func(chi decomp.Point, value float64, prunedEval, fresh bool) (stop bool, err error)

// frontierValue unwraps a frontier result: cancellations racing past the
// budget checks become a graceful StopContext (best-so-far result) instead of
// failing the search, everything else is a hard error.
func (s *search) frontierValue(ctx context.Context, r eval.FrontierResult) (float64, bool, error) {
	if r.Err != nil {
		if ctx.Err() != nil || errors.Is(r.Err, context.Canceled) {
			s.stopped = StopContext
			return 0, false, errStop
		}
		return 0, false, r.Err
	}
	return r.Eval.Value, r.Eval.Pruned, nil
}

// runWave drives one pre-drawn candidate sequence through the frontier and
// the handler.  bound is the wave's live incumbent: the frontier lowers it as
// full estimates complete, and a coupled search lowers it to the fleet's best
// after every member.  Results reach the handler strictly in wave order; the
// returned count is how many members the handler processed (the rest were
// cancelled or never submitted).
//
// The budgets are checked before the wave's first evaluation, and every
// handler checks them after each member it processes.  At width 1 the
// frontier begins an evaluation only after the handler has seen the one
// before, so the budgets are checked before every fresh evaluation and slots
// are drawn one at a time, which is what the recorded fixed-seed samples rest
// on; a search whose context is already cancelled reserves no slot.
func (s *search) runWave(ctx context.Context, wave []decomp.Point, bound *eval.Bound, handle waveHandler) (int, error) {
	processed := 0
	// Wave members the search has already valued are served from its value
	// cache in place; only the rest is submitted to the frontier.  The
	// frontier delivers in submission order, so interleaving the cached
	// members back in by wave position preserves the visit order exactly.
	var need []int
	for i, chi := range wave {
		if _, ok := s.values[chi.Key()]; !ok {
			need = append(need, i)
		}
	}
	var (
		pos     int // next wave position to process
		stopErr error
		done    bool
	)
	// processCached handles cached members at wave positions below limit.
	processCached := func(limit int) bool {
		for pos < limit {
			chi := wave[pos]
			key := chi.Key()
			v, ok := s.values[key]
			if !ok {
				break
			}
			pos++
			processed++
			stop, err := handle(chi, v, s.prunedPts[key], false)
			if err != nil {
				stopErr = err
				return true
			}
			if stop {
				return true
			}
		}
		return false
	}
	if len(need) == 0 {
		processCached(len(wave))
		return processed, stopErr
	}
	if err := s.checkBudgets(ctx); err != nil {
		return processed, err
	}
	pts := make([]decomp.Point, len(need))
	for j, i := range need {
		pts[j] = wave[i]
	}
	fr := eval.NewFrontier(s.obj, s.opts.MaxConcurrentEvals)
	fr.Run(ctx, pts, bound, func(r eval.FrontierResult) bool {
		if processCached(need[r.Index]) {
			done = true
			return true
		}
		value, prunedEval, err := s.frontierValue(ctx, r)
		if err != nil {
			stopErr, done = err, true
			return true
		}
		key := r.Point.Key()
		s.values[key] = value
		if prunedEval {
			s.prunedPts[key] = true
		}
		s.evals++
		pos++
		processed++
		stop, err := handle(r.Point, value, prunedEval, true)
		if err != nil {
			stopErr, done = err, true
			return true
		}
		if stop {
			done = true
			return true
		}
		if s.opts.Shared != nil {
			// Foreign fleet improvements tighten the in-flight siblings too.
			bound.Lower(s.opts.Shared.Best())
		}
		return false
	})
	if !done {
		processCached(len(wave))
	}
	return processed, stopErr
}

// tabuNeighborhood checks one whole tabu neighbourhood and reports whether
// it improved the best value.  A returned errStop ends the search
// gracefully (the stop reason is already recorded); other errors are hard
// failures.
func (s *search) tabuNeighborhood(ctx context.Context, tl *tabuLists, center decomp.Point, best *decomp.Point, bestValue *float64) (bool, error) {
	order := s.drawTabuOrder(neighbors(center, s.opts.Radius))
	if len(order) == 0 {
		return false, nil
	}
	stats := Neighborhood{
		Center:     center,
		Radius:     s.opts.Radius,
		Candidates: len(order),
		Width:      s.opts.MaxConcurrentEvals,
	}
	updated := false
	handle := func(chi decomp.Point, value float64, prunedEval, fresh bool) (bool, error) {
		if fresh {
			tl.addChecked(chi, value, s.values)
			stats.Evaluated++
		}
		if prunedEval {
			stats.Pruned++
		}
		// The incumbent is the best value so far, so a pruned point's lower
		// bound exceeds it — exactly the information the tabu search needs
		// from a worse point, at a fraction of the solving.  With a fleet's
		// lower incumbent in play the bound may undercut this search's own
		// best, so pruned bounds never count as improvements.
		improved := value < *bestValue && !prunedEval
		s.record(chi, value, improved, improved, prunedEval)
		if improved {
			*best, *bestValue = chi, value
			updated = true
			stats.Improved = true
			s.offerBest(*best, *bestValue)
			if s.targetReached(*bestValue) {
				return true, errStop
			}
		}
		if err := s.checkBudgets(ctx); err != nil {
			return true, err
		}
		return false, nil
	}
	processed, err := s.runWave(ctx, order, s.frontierBound(*bestValue), handle)
	stats.Cancelled = len(order) - processed
	stats.BestValue = *bestValue
	s.observeNeighborhood(stats)
	return updated, err
}

// anneal is the simulated annealing's main loop: speculative waves of up
// to `width` pre-drawn candidates, an acceptance decides the wave and
// discards its unprocessed rest whole (never recorded, not even in the
// search's value cache, so the decision sequence matches what a width-1
// run would do from the same acceptance).  At width 1 every wave holds one
// candidate: pick, evaluate, accept or not, cool.
func (s *search) anneal(ctx context.Context, center decomp.Point, centerValue float64, best decomp.Point, bestValue, temperature float64) (*Result, error) {
	opts := s.opts
	width := opts.MaxConcurrentEvals
	for {
		if err := s.checkBudgets(ctx); err != nil {
			return s.result(best, bestValue), nil
		}
		if temperature < opts.MinTemperature {
			s.stopped = StopTemperature
			return s.result(best, bestValue), nil
		}

		bestValueUpdated := false
		radius := opts.Radius
		checked := map[string]bool{center.Key(): true}
		for !bestValueUpdated {
			neighborhood := neighbors(center, radius)
			wave := s.drawWave(neighborhood, checked, width)
			if len(wave) == 0 {
				// Neighbourhood exhausted at this radius.
				if radius < opts.MaxRadius {
					radius++
					continue
				}
				s.stopped = StopNoImprovment
				return s.result(best, bestValue), nil
			}
			stats := Neighborhood{
				Center:     center,
				Radius:     radius,
				Candidates: len(wave),
				Width:      width,
			}
			handle := func(chi decomp.Point, value float64, prunedEval, fresh bool) (bool, error) {
				checked[chi.Key()] = true
				if fresh {
					stats.Evaluated++
				}
				if prunedEval {
					stats.Pruned++
				}
				// The incumbent is the global best: a point pruned against it
				// can never improve the run's result.  Its lower bound feeds
				// the acceptance rule; since the bound understates F, a pruned
				// point is — if anything — accepted slightly more often than
				// its true value would be, preserving the hill-escaping of the
				// annealing.
				accepted := s.pointAccepted(value, centerValue, temperature)
				improved := value < bestValue && !prunedEval
				s.record(chi, value, accepted, improved, prunedEval)
				if accepted {
					center, centerValue = chi, value
					if improved {
						best, bestValue = chi, value
						stats.Improved = true
						s.offerBest(best, bestValue)
						if s.targetReached(bestValue) {
							return true, errStop
						}
					}
					bestValueUpdated = true
				}
				if allChecked(neighborhood, checked) && !bestValueUpdated {
					radius++
					if radius > opts.MaxRadius {
						s.stopped = StopNoImprovment
						return true, errStop
					}
				}
				temperature *= opts.CoolingFactor
				if temperature < opts.MinTemperature {
					s.stopped = StopTemperature
					return true, errStop
				}
				if err := s.checkBudgets(ctx); err != nil {
					return true, err
				}
				return accepted, nil
			}
			processed, err := s.runWave(ctx, wave, s.frontierBound(bestValue), handle)
			stats.Cancelled = len(wave) - processed
			stats.BestValue = bestValue
			s.observeNeighborhood(stats)
			if err != nil {
				if errors.Is(err, errStop) {
					return s.result(best, bestValue), nil
				}
				return nil, err
			}
		}
	}
}
