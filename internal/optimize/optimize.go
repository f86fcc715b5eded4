// Package optimize implements the two metaheuristic minimizers of the
// predictive function described in Section 3 of the paper: simulated
// annealing (Algorithm 1) and tabu search (Algorithm 2).
//
// Both algorithms move between points χ of a finite search space (subsets of
// the starting decomposition set, see package decomp), evaluating the
// predictive function F(χ) through an Objective.  Because a single
// evaluation is expensive (it solves a random sample of subproblems), both
// algorithms cache values of already-visited points; the tabu search
// additionally maintains the two tabu lists L1 (points with fully checked
// neighbourhoods) and L2 (checked points with unchecked neighbourhoods) and
// uses the accumulated conflict activity of variables to choose a new
// neighbourhood centre when the current one is exhausted.
//
// A search evaluates one candidate at a time, each drawn just before it is
// evaluated (see scheduler.go).  Searches racing each other are coupled
// through a shared Incumbent (fleet.go); the race that runs them is the pdsat
// package's.
package optimize

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"

	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/decomp"
	"github.com/paper-repro/pdsat-go/internal/eval"
)

// Objective computes the predictive function value at a point of the search
// space: an eval.Evaluator, in practice the evaluation engine over a pdsat
// scope (pdsat.NewObjective).  The searches thread their incumbent — the best
// F value certified so far — into every evaluation, enabling the engine's
// incumbent pruning: a pruned evaluation returns a certified lower bound above
// the incumbent instead of paying for the full sample, and the searches treat
// such points as "worse than best" (recorded with Visit.Pruned set).  With
// pruning off an evaluation is the plain Monte Carlo estimate.
type Objective = eval.Evaluator

// ActivitySource exposes per-variable conflict activity.  When the objective
// also implements this interface, the tabu search uses it for the
// getNewCenter heuristic of the paper ("the point for which the total
// conflict activity of Boolean variables contained in the corresponding
// decomposition set is the largest").
type ActivitySource interface {
	VarActivity(v cnf.Var) float64
}

// Options configure both minimizers; the zero value is completed with
// DefaultOptions values.
type Options struct {
	// Radius is the neighbourhood radius ρ (1 in all the paper's
	// experiments).
	Radius int
	// MaxRadius bounds the radius growth of simulated annealing when a
	// neighbourhood is exhausted without an accepted point.
	MaxRadius int
	// MaxEvaluations bounds the number of objective evaluations (cache hits
	// do not count).  Zero means unlimited.
	MaxEvaluations int
	// MaxTime bounds the wall-clock duration of the search (the
	// timeExceeded() predicate of the pseudocode).  Zero means unlimited.
	MaxTime time.Duration
	// Seed drives point selection and the stochastic acceptance rule.
	Seed int64

	// InitialTemperature is T0 of the simulated annealing.
	InitialTemperature float64
	// CoolingFactor is Q: T_i = Q·T_{i-1}, Q ∈ (0,1).
	CoolingFactor float64
	// MinTemperature is T_inf; the annealing stops when the temperature
	// drops below it.
	MinTemperature float64

	// Observer, when non-nil, is called for every recorded Visit as the
	// search makes it, from the search's goroutine, in trace order.  It
	// must not block for long and must not call back into the search.
	// Observation never changes the search itself: the visits are the
	// same ones that end up in Result.Trace.
	Observer func(Visit)

	// Shared couples the search into a fleet of concurrent searches racing
	// over the same space: Best() tightens the incumbent threaded into
	// every evaluation (enabling cross-search incumbent pruning), and the
	// search Offers each update of its own best value.  A search coupled to
	// nobody but itself — a race of one, as every plain search job in pdsat
	// is — sees its own best as the shared incumbent, so the run is
	// bit-identical to an uncoupled search.  Nil means uncoupled.
	//
	// With a foreign (lower) incumbent in play, a pruned evaluation's lower
	// bound may undercut the search's own best value; pruned visits are
	// therefore never counted as improvements — the bound proves the point
	// worse than the fleet's best, which is all a minimizer needs to know.
	Shared SharedIncumbent

	// MaxConcurrentEvals must be 0 or 1, which mean the same: candidates
	// are evaluated one at a time, in visit order, with a budget check
	// before each.  Validate refuses anything else, as
	// eval.Policy.Validate does.
	MaxConcurrentEvals int

	// NeighborhoodObserver, when non-nil, is called after every
	// neighbourhood pass (tabu neighbourhoods and simulated-annealing
	// candidates), from the search's goroutine.
	NeighborhoodObserver func(Neighborhood)
}

// SharedIncumbent is the coupling point of a search fleet: a global,
// monotonically decreasing bound on the best certified F value any coupled
// search has found.  Implementations must be safe for concurrent use; see
// Incumbent.
type SharedIncumbent interface {
	// Best returns the lowest certified F value offered so far (+Inf if
	// none).
	Best() float64
	// Offer publishes a full-estimate best value found by this search,
	// returning true if it improved the shared incumbent.
	Offer(p decomp.Point, v float64) bool
}

// Validate reports whether the options are usable.  Zero values are fine —
// they select the DefaultOptions value or mean "unlimited" — but negative
// budgets, a radius below 1 (when set), a cooling factor outside (0,1), or a
// temperature that is negative, NaN or infinite, and an evaluation
// concurrency other than 0 or 1, are configuration mistakes and are rejected
// with a clear error rather than silently coerced.
// Both search entry points validate eagerly.
func (o Options) Validate() error {
	if o.Radius < 0 {
		return fmt.Errorf("optimize: negative neighbourhood radius %d (use 0 for the default of %d)",
			o.Radius, DefaultOptions().Radius)
	}
	if o.MaxRadius < 0 {
		return fmt.Errorf("optimize: negative maximum radius %d", o.MaxRadius)
	}
	if o.MaxRadius > 0 && o.Radius > 0 && o.MaxRadius < o.Radius {
		return fmt.Errorf("optimize: maximum radius %d below radius %d", o.MaxRadius, o.Radius)
	}
	if o.MaxEvaluations < 0 {
		return fmt.Errorf("optimize: negative evaluation budget %d (use 0 for unlimited)", o.MaxEvaluations)
	}
	if o.MaxTime < 0 {
		return fmt.Errorf("optimize: negative time budget %v (use 0 for unlimited)", o.MaxTime)
	}
	// NaN fails every comparison, so the float checks ask for what is valid
	// rather than rule out what is not.
	if !(o.InitialTemperature >= 0 && !math.IsInf(o.InitialTemperature, 1)) {
		return fmt.Errorf("optimize: invalid initial temperature %v (want a finite T0 ≥ 0; use 0 to derive it from the start value)",
			o.InitialTemperature)
	}
	if !(o.MinTemperature >= 0 && !math.IsInf(o.MinTemperature, 1)) {
		return fmt.Errorf("optimize: invalid minimum temperature %v (want a finite T_inf ≥ 0)", o.MinTemperature)
	}
	if !(o.CoolingFactor >= 0 && o.CoolingFactor < 1) {
		return fmt.Errorf("optimize: cooling factor %v outside (0,1) (use 0 for the default of %v)",
			o.CoolingFactor, DefaultOptions().CoolingFactor)
	}
	return eval.Policy{MaxConcurrentEvals: o.MaxConcurrentEvals}.Validate()
}

// DefaultOptions returns the options used when fields are left zero.
func DefaultOptions() Options {
	return Options{
		Radius:             1,
		MaxRadius:          3,
		MaxEvaluations:     0,
		MaxTime:            0,
		Seed:               1,
		InitialTemperature: 0, // 0 = derive from the start value
		CoolingFactor:      0.98,
		MinTemperature:     1e-6,
	}
}

func (o Options) withDefaults() Options {
	def := DefaultOptions()
	if o.Radius <= 0 {
		o.Radius = def.Radius
	}
	if o.MaxRadius < o.Radius {
		o.MaxRadius = o.Radius + 2
	}
	if o.CoolingFactor <= 0 || o.CoolingFactor >= 1 {
		o.CoolingFactor = def.CoolingFactor
	}
	if o.MinTemperature <= 0 {
		o.MinTemperature = def.MinTemperature
	}
	if o.Seed == 0 {
		o.Seed = def.Seed
	}
	return o
}

// StopReason describes why a search terminated.
type StopReason string

// Possible stop reasons.
const (
	StopTime          StopReason = "time limit"
	StopEvaluations   StopReason = "evaluation budget"
	StopTemperature   StopReason = "temperature limit"
	StopExhausted     StopReason = "search space exhausted"
	StopContext       StopReason = "context cancelled"
	StopNoImprovement StopReason = "no unchecked points"
)

// Visit records one objective evaluation.
type Visit struct {
	// Index is the evaluation number (0-based, cache hits excluded).
	Index int
	// Point is the evaluated point.
	Point decomp.Point
	// Value is F(point), or a certified lower bound on it when Pruned.
	Value float64
	// Accepted reports whether the point became the new centre.
	Accepted bool
	// Improved reports whether the point improved the best known value.
	Improved bool
	// Pruned reports that the evaluation was aborted by incumbent pruning:
	// Value is a lower bound proving the point worse than the best value
	// at evaluation time, not a full Monte Carlo estimate.
	Pruned bool
}

// Result is the outcome of a minimization run.
type Result struct {
	// BestPoint is the best decomposition set found.
	BestPoint decomp.Point
	// BestValue is F(BestPoint).
	BestValue float64
	// Evaluations is the number of objective evaluations performed.
	Evaluations int
	// Trace records every evaluation in order.
	Trace []Visit
	// Stop is the reason the search ended.
	Stop StopReason
	// WallTime is the elapsed time of the search.
	WallTime time.Duration
}

// String summarizes the result.
func (r *Result) String() string {
	return fmt.Sprintf("best F=%.6g with d=%d after %d evaluations (%s)",
		r.BestValue, r.BestPoint.Count(), r.Evaluations, r.Stop)
}

// search bundles state shared by both algorithms.
type search struct {
	obj   Objective
	opts  Options
	rng   *rand.Rand
	start time.Time
	// values caches F of every evaluated point; prunedPts marks those whose
	// value is a pruned lower bound rather than a full estimate.  A pruned
	// value exceeds the incumbent it was pruned against, and incumbents (best
	// values) only decrease during a search, so a cached pruned bound keeps
	// proving its point worse for the rest of the run.
	values    map[string]float64
	prunedPts map[string]bool
	evals     int
	trace     []Visit
	stopped   StopReason
}

func newSearch(obj Objective, opts Options) *search {
	return &search{
		obj:  obj,
		opts: opts,
		rng:  rand.New(rand.NewSource(opts.Seed)),
		//pdsat:nondeterministic anchors the MaxTime budget and WallTime reporting; never feeds F values
		start:     time.Now(),
		values:    make(map[string]float64),
		prunedPts: make(map[string]bool),
	}
}

var errStop = errors.New("optimize: stop")

// evaluateStart evaluates the start point and records it as the first
// accepted, improving visit.  It runs against an uncoupled +Inf incumbent:
// never coupled to a fleet incumbent, so never pruned and never
// budget-tightened — pruning it against a foreign incumbent would leave the
// search without a certified best value of its own.  A returned errStop means
// the search ended before it (the reason is recorded).
func (s *search) evaluateStart(ctx context.Context, start decomp.Point) (float64, error) {
	value, _, err := s.evaluate(ctx, start, math.Inf(1))
	if err == nil {
		s.record(start, value, true, true, false)
	}
	return value, err
}

// checkBudgets returns errStop (after recording the reason) if a budget is
// exhausted.
func (s *search) checkBudgets(ctx context.Context) error {
	if ctx.Err() != nil {
		s.stopped = StopContext
		return errStop
	}
	if s.opts.MaxEvaluations > 0 && s.evals >= s.opts.MaxEvaluations {
		s.stopped = StopEvaluations
		return errStop
	}
	//pdsat:nondeterministic MaxTime is an explicitly wall-clock stop; callers wanting reproducible runs use MaxEvaluations
	if s.opts.MaxTime > 0 && time.Since(s.start) >= s.opts.MaxTime {
		s.stopped = StopTime
		return errStop
	}
	return nil
}

// offerBest publishes an update of the search's own best value to the
// fleet's shared incumbent (a no-op for uncoupled searches).  Only full
// estimates reach it: best values never hold pruned lower bounds.
func (s *search) offerBest(p decomp.Point, v float64) {
	if s.opts.Shared != nil {
		s.opts.Shared.Offer(p, v)
	}
}

func (s *search) record(p decomp.Point, value float64, accepted, improved, pruned bool) {
	v := Visit{
		Index:    len(s.trace),
		Point:    p,
		Value:    value,
		Accepted: accepted,
		Improved: improved,
		Pruned:   pruned,
	}
	s.trace = append(s.trace, v)
	if s.opts.Observer != nil {
		s.opts.Observer(v)
	}
}

func (s *search) result(best decomp.Point, bestValue float64) *Result {
	if s.stopped == "" {
		s.stopped = StopExhausted
	}
	return &Result{
		BestPoint:   best,
		BestValue:   bestValue,
		Evaluations: s.evals,
		Trace:       s.trace,
		Stop:        s.stopped,
		//pdsat:nondeterministic WallTime is reporting-only; it never influences the search
		WallTime: time.Since(s.start),
	}
}

// SimulatedAnnealing minimizes the objective starting from the given point,
// following Algorithm 1 of the paper.  The returned result always reports
// the best point seen over the whole run (the pseudocode's χ_best tracks the
// accepted centre; we additionally remember the global minimum, which is
// what a user of the partitioning actually wants).
func SimulatedAnnealing(ctx context.Context, obj Objective, start decomp.Point, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	s := newSearch(obj, opts)

	centerValue, err := s.evaluateStart(ctx, start)
	if err != nil {
		if errors.Is(err, errStop) {
			return s.result(start, math.Inf(1)), nil
		}
		return nil, err
	}
	center, best, bestValue := start, start, centerValue
	s.offerBest(best, bestValue)

	temperature := opts.InitialTemperature
	if temperature <= 0 {
		// A temperature of the order of the start value accepts moderate
		// degradations early on, which matches the usual SA practice when no
		// scale is given.
		temperature = math.Max(centerValue*0.1, 1)
	}

	return s.anneal(ctx, center, centerValue, best, bestValue, temperature)
}

// pointAccepted implements the acceptance rule of Algorithm 1.
func (s *search) pointAccepted(candidate, current, temperature float64) bool {
	if candidate < current {
		return true
	}
	if temperature <= 0 {
		return false
	}
	p := math.Exp(-(candidate - current) / temperature)
	return s.rng.Float64() < p
}

func allChecked(points []decomp.Point, checked map[string]bool) bool {
	for _, p := range points {
		if !checked[p.Key()] {
			return false
		}
	}
	return true
}

// TabuSearch minimizes the objective starting from the given point,
// following Algorithm 2 of the paper.  L1 holds points whose whole
// neighbourhood has been checked, L2 holds checked points with unchecked
// neighbourhoods; when the current neighbourhood yields no improvement the
// next centre is the L2 point with the largest total conflict activity of
// its decomposition set (falling back to the best F value when the
// objective provides no activity information).
func TabuSearch(ctx context.Context, obj Objective, start decomp.Point, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	s := newSearch(obj, opts)

	startValue, err := s.evaluateStart(ctx, start)
	if err != nil {
		if errors.Is(err, errStop) {
			return s.result(start, math.Inf(1)), nil
		}
		return nil, err
	}

	tl := newTabuLists(opts.Radius)
	tl.addChecked(start, startValue, s.values)

	center, best, bestValue := start, start, startValue
	s.offerBest(best, bestValue)

	for {
		if err := s.checkBudgets(ctx); err != nil {
			return s.result(best, bestValue), nil
		}
		updated, err := s.tabuNeighborhood(ctx, tl, center, &best, &bestValue)
		if err != nil {
			if errors.Is(err, errStop) {
				return s.result(best, bestValue), nil
			}
			return nil, err
		}
		if updated {
			center = best
			continue
		}
		next, ok := tl.getNewCenter(s.obj)
		if !ok {
			s.stopped = StopExhausted
			return s.result(best, bestValue), nil
		}
		center = next
	}
}

// neighbors returns the search neighbourhood of p: N_ρ(p) without the empty
// set.  The empty set is a point of the space (at distance p.Count() from
// p) but not a decomposition — there is nothing to sample, and the runner
// rejects it — so the searches never visit it, and tabuLists.addChecked does
// not wait for it before calling a neighbourhood fully checked.
func neighbors(p decomp.Point, radius int) []decomp.Point {
	ns := p.Neighbors(radius)
	if p.Count() > radius {
		return ns
	}
	return slices.DeleteFunc(ns, func(q decomp.Point) bool { return q.Count() == 0 })
}

// tabuLists implements the L1/L2 bookkeeping of Algorithm 2.
type tabuLists struct {
	radius int
	// l2 maps point keys to entries with unchecked neighbourhoods.
	l2 map[string]*tabuEntry
	// l1 counts the points whose neighbourhood is fully checked: nothing
	// reads an L1 point again, getNewCenter draws from L2 alone.
	l1 int
}

type tabuEntry struct {
	point     decomp.Point
	value     float64
	unchecked int // number of neighbours not yet evaluated
}

func newTabuLists(radius int) *tabuLists {
	return &tabuLists{
		radius: radius,
		l2:     make(map[string]*tabuEntry),
	}
}

// addChecked registers a newly evaluated point: it joins L2 (or directly L1
// if its neighbourhood happens to be fully evaluated already) and the
// unchecked counters of all neighbouring L2 entries are decreased, moving
// entries whose neighbourhood became fully checked into L1.  values is the
// global cache of evaluated points (keyed like Point.Key).
func (t *tabuLists) addChecked(p decomp.Point, value float64, values map[string]float64) {
	neighbors := p.Neighbors(t.radius)
	unchecked := 0
	for _, n := range neighbors {
		// The empty set is never visited (see neighbors), so no
		// neighbourhood waits for it.
		if _, ok := values[n.Key()]; !ok && n.Count() > 0 {
			unchecked++
		}
	}
	if unchecked == 0 {
		t.l1++
	} else {
		t.l2[p.Key()] = &tabuEntry{point: p, value: value, unchecked: unchecked}
	}
	// The new point is now checked: update neighbours that live in L2.
	for _, n := range neighbors {
		key := n.Key()
		if other, ok := t.l2[key]; ok {
			other.unchecked--
			if other.unchecked <= 0 {
				delete(t.l2, key)
				t.l1++
			}
		}
	}
}

// getNewCenter implements the heuristic of the paper: among L2 points pick
// the one whose decomposition set has the largest total conflict activity;
// objectives without activity information fall back to the smallest F value.
func (t *tabuLists) getNewCenter(obj Objective) (decomp.Point, bool) {
	if len(t.l2) == 0 {
		return decomp.Point{}, false
	}
	src, hasActivity := obj.(ActivitySource)
	keys := make([]string, 0, len(t.l2))
	for key := range t.l2 {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	var bestKey string
	var bestScore float64
	first := true
	for _, key := range keys {
		e := t.l2[key]
		var score float64
		if hasActivity {
			for _, v := range e.point.Vars() {
				score += src.VarActivity(v)
			}
		} else {
			score = -e.value // smaller F = larger score
		}
		if first || score > bestScore {
			bestKey, bestScore, first = key, score, false
		}
	}
	return t.l2[bestKey].point, true
}

// L1Size and L2Size expose the tabu list sizes (used in tests).
func (t *tabuLists) L1Size() int { return t.l1 }

// L2Size returns the number of checked points with unchecked neighbourhoods.
func (t *tabuLists) L2Size() int { return len(t.l2) }
