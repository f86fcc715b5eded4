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
// evaluated (see scheduler.go), and judges every visit — the start point, a
// tabu neighbour, an annealing candidate — in one step, search.take: a visit
// improves when its cost is below the best value, where an evaluation pruned
// against the incumbent, or with a sample censored at the per-subproblem
// budget, costs +Inf; an improving visit is always taken, becomes the best
// and is offered to the fleet.  Searches racing each other are coupled
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
// incumbent pruning: a pruned evaluation returns the incumbent, F being
// certified above it, instead of paying for the full sample, and the searches
// treat such points as "worse than best" (recorded with Visit.Pruned set).
// With pruning off an evaluation is the plain Monte Carlo estimate.
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
	// MaxEvaluations bounds the number of objective evaluations: a re-visit
	// of a point the search already valued is no evaluation, and an F-cache
	// hit is one that solves nothing.  Zero means unlimited.  The paper's
	// timeExceeded() predicate is a context deadline, which ends the search
	// with StopContext and its best so far.
	MaxEvaluations int
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
	// bit-identical to an uncoupled search.  Nil means uncoupled.  Only
	// improvements are offered (see search.take).
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
	StopEvaluations   StopReason = "evaluation budget"
	StopTemperature   StopReason = "temperature limit"
	StopExhausted     StopReason = "search space exhausted"
	StopContext       StopReason = "context cancelled"
	StopNoImprovement StopReason = "no unchecked points"
)

// Visit records one objective evaluation.
type Visit struct {
	// Index is the evaluation number (0-based; re-visits are no evaluations).
	Index int
	// Point is the evaluated point.
	Point decomp.Point
	// Value is the evaluation's reported value: F(point), the incumbent F
	// was certified above when Pruned, or a restricted-mean lower bound when
	// a sample was censored at the per-subproblem budget (the search ranks
	// both at +Inf, so they never improve).
	Value float64
	// Accepted reports whether the point became the new centre.
	Accepted bool
	// Improved reports whether the point improved the best known value;
	// an improving visit is always accepted.
	Improved bool
	// Pruned reports that the evaluation was aborted by incumbent pruning:
	// Value is the incumbent at evaluation time, which F exceeds, not a
	// full Monte Carlo estimate.
	Pruned bool
}

// Result is the outcome of a minimization run.
type Result struct {
	// BestPoint is the best decomposition set found: the point of the last
	// visit marked Improved, or the start point when none is.
	BestPoint decomp.Point
	// BestValue is F(BestPoint), or +Inf when no visit improved: the search
	// stopped before its start point was evaluated, or every point it
	// evaluated had a censored sample.
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
	// values holds what the search knows of every evaluated point.  A pruned
	// point's F exceeds the incumbent it was pruned against, and incumbents
	// (best values) only decrease during a search, so a cached prune keeps
	// proving its point worse for the rest of the run.
	values map[string]valued
	// best is the point of the last improving visit (see take), at
	// bestValue; until there is one, the start point at +Inf.
	best      decomp.Point
	bestValue float64
	evals     int
	trace     []Visit
	stopped   StopReason
}

// valued is what a search knows of an evaluated point.
type valued struct {
	// value is the evaluation's reported Value.  pruned marks an evaluation
	// cut short against the incumbent, whose value is that incumbent,
	// censored one with a sample stopped at the per-subproblem budget, whose
	// value is a restricted-mean lower bound.
	value            float64
	pruned, censored bool
}

// cost is what a search ranks a point by: its value, or +Inf when F was not
// measured — the evaluation was pruned, or a sample was not solved within the
// limit at this N — since a bound says nothing of how much more it costs.
func (v valued) cost() float64 {
	if v.pruned || v.censored {
		return math.Inf(1)
	}
	return v.value
}

func newSearch(obj Objective, opts Options) *search {
	return &search{
		obj:  obj,
		opts: opts,
		rng:  rand.New(rand.NewSource(opts.Seed)),
		//pdsat:nondeterministic anchors WallTime reporting; never feeds F values
		start:     time.Now(),
		values:    make(map[string]valued),
		bestValue: math.Inf(1),
	}
}

var errStop = errors.New("optimize: stop")

// begin evaluates the start point and takes it as the first, accepted
// visit.  It runs against an uncoupled +Inf incumbent: never coupled to a
// fleet incumbent, so never pruned and never budget-tightened — pruning it
// against a foreign incumbent would leave the search without a certified
// best value of its own.  A returned errStop means the search ended before
// it (the reason is recorded).
func (s *search) begin(ctx context.Context, start decomp.Point) (valued, error) {
	s.best = start
	v, err := s.evaluate(ctx, start, math.Inf(1))
	if err == nil {
		s.take(start, v, true)
	}
	return v, err
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
	return nil
}

// take is the one judgement of a visit, the start point's, a tabu
// neighbour's and an annealing candidate's alike.  The visit improves when
// its cost is below the best value; then it becomes the best and is offered
// to the fleet's shared incumbent.  An improving visit is always taken;
// accepted says whether the caller takes it otherwise (the annealing's
// acceptance rule).  The visit is recorded at its reported value.
func (s *search) take(p decomp.Point, v valued, accepted bool) (taken, improved bool) {
	improved = v.cost() < s.bestValue
	taken = accepted || improved
	visit := Visit{Index: len(s.trace), Point: p, Value: v.value, Accepted: taken, Improved: improved, Pruned: v.pruned}
	s.trace = append(s.trace, visit)
	if s.opts.Observer != nil {
		s.opts.Observer(visit)
	}
	if improved {
		s.best, s.bestValue = p, v.value
		if s.opts.Shared != nil {
			s.opts.Shared.Offer(p, v.value)
		}
	}
	return taken, improved
}

// finish ends the search with its result, unless err is a hard failure
// rather than errStop.
func (s *search) finish(err error) (*Result, error) {
	if err != nil && !errors.Is(err, errStop) {
		return nil, err
	}
	if s.stopped == "" {
		s.stopped = StopExhausted
	}
	return &Result{
		BestPoint:   s.best,
		BestValue:   s.bestValue,
		Evaluations: s.evals,
		Trace:       s.trace,
		Stop:        s.stopped,
		//pdsat:nondeterministic WallTime is reporting-only; it never influences the search
		WallTime: time.Since(s.start),
	}, nil
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

	startValue, err := s.begin(ctx, start)
	if err != nil {
		return s.finish(err)
	}
	temperature := opts.InitialTemperature
	if temperature <= 0 {
		// A temperature of the order of the start value accepts moderate
		// degradations early on, which matches the usual SA practice when no
		// scale is given.  It is the reported value, a bound too when a
		// sample was censored, not the +Inf such a start ranks at.
		temperature = math.Max(startValue.value*0.1, 1)
	}
	return s.anneal(ctx, start, startValue, temperature)
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

	startValue, err := s.begin(ctx, start)
	if err != nil {
		return s.finish(err)
	}
	tl := newTabuLists(opts.Radius)
	tl.addChecked(start, startValue.cost(), s.values)

	center := start
	for {
		if err := s.checkBudgets(ctx); err != nil {
			return s.finish(err)
		}
		updated, err := s.tabuNeighborhood(ctx, tl, center)
		if err != nil {
			return s.finish(err)
		}
		if updated {
			center = s.best
			continue
		}
		next, ok := tl.getNewCenter(s.obj)
		if !ok {
			s.stopped = StopExhausted
			return s.finish(nil)
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
// entries whose neighbourhood became fully checked into L1.  value is the
// point's cost; values is the search's record of evaluated points (keyed
// like Point.Key).
func (t *tabuLists) addChecked(p decomp.Point, value float64, values map[string]valued) {
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
// objectives without activity information fall back to the smallest cost, on
// which a pruned or censored point ranks last.
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
