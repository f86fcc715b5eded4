// Package eval is the budget-aware evaluation engine: it decides how much
// solving one predictive-function evaluation F(X̃) is allowed to cost.
//
// The paper's whole premise (conf_pact_SemenovZ15 §3) is that one evaluation
// of F is expensive — N subproblem solves — so the metaheuristics must
// squeeze maximum information from minimum solving.  The paper itself prunes
// with per-subproblem time limits and sizes its samples via the CLT
// confidence interval (eq. 3).  This package generalizes both ideas into a
// Policy with three mechanisms, each independently switchable:
//
//   - Incumbent pruning (Policy.Prune): while a candidate's sample is being
//     solved, the partial sum Σζ of the observed costs yields the lower
//     bound 2^d·(Σζ)/N ≤ F.  As soon as that bound exceeds the best F the
//     search has seen, the remainder of the sample proves nothing — the
//     candidate is already worse — and the evaluation is aborted (the
//     cluster leader cancels only that batch's in-flight tasks on the
//     workers, not the transport).  No single subproblem may cost more than
//     the whole sample may: one allowance per evaluation, set when its
//     sample is dispatched.
//
//   - Staged adaptive sampling (Policy.Stages): the sample is cut into
//     geometrically growing stages (e.g. N/4, N/2, N).  The stages are
//     checkpoints, not dispatches: the backend sends the whole sample out
//     once and, whenever every subproblem of a stage's index prefix has
//     answered, compares the eq.-3 confidence half-width δ_γ·σ/√n of the
//     mean over exactly that prefix against ε·mean; once the estimate is
//     tight enough the rest of the sample is abandoned, so easy points cost
//     a fraction of N.  Deciding on index prefixes makes the outcome a
//     function of the costs, not of the order in which workers answer.
//
//   - F-memoization (Policy.Cache): a point-keyed Cache of finished
//     evaluations shared across searches and jobs on the same
//     problem/configuration, so re-visited decomposition sets cost nothing.
//     A pruned evaluation is cached with the incumbent it was pruned against
//     and is served whenever that incumbent is at least the caller's, as F
//     above it still proves the point worse.
//
// The Engine composes the three: it wraps a Backend (a pdsat Scope) with the
// cache and the pruning/staging policy, and implements Evaluator — what the
// optimize package's searches minimize, threading their incumbent (best F so
// far) into every evaluation.  A search asks for F one way, one candidate at
// a time: it calls the engine's EvaluateF, the engine the backend's
// EvaluateSlot, which draws the next evaluation slot.
//
// The zero Policy disables all three mechanisms and reproduces the
// always-full-sample behaviour bit for bit; this is asserted by regression
// tests in internal/pdsat.
package eval

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/paper-repro/pdsat-go/internal/decomp"
	"github.com/paper-repro/pdsat-go/internal/montecarlo"
)

// Policy configures the budget-aware evaluation of the predictive function.
// The zero value disables every mechanism: full-sample evaluations, no
// memoization — bit-identical to the pre-engine pipeline.
type Policy struct {
	// Prune aborts an evaluation as soon as its partial lower bound
	// 2^d·(Σζ)/N exceeds the incumbent (the best F the search has seen).
	// The evaluation then reports the incumbent, the one fact it certifies
	// being F above it; searches treat such points as "worse than best"
	// without paying for the full sample.
	Prune bool `json:"prune,omitempty"`
	// Stages splits the sample into this many geometrically growing stages
	// (3 stages of N=100: 25, 50, 100) with an early-stop check between
	// them.  Values ≤ 1 disable staging.
	Stages int `json:"stages,omitempty"`
	// Epsilon is the relative precision target of the staged early stop:
	// once the eq.-3 confidence half-width of the mean falls to
	// ε·mean or below, the remaining stages are skipped.  Zero means no
	// early stop (stages then only add pruning checkpoints).
	Epsilon float64 `json:"epsilon,omitempty"`
	// Gamma is the confidence level γ of the eq.-3 half-width used by the
	// early stop (0 means DefaultGamma).
	Gamma float64 `json:"gamma,omitempty"`
	// Cache memoizes finished evaluations by decomposition set, shared
	// across searches and jobs on the same problem and configuration.
	// A cache hit still counts against a search's evaluation budget: it is
	// an evaluation that solves nothing.  A search's re-visit of a point it
	// already valued is no evaluation at all.
	Cache bool `json:"cache,omitempty"`
	// MaxConcurrentEvals must be 0 or 1, which mean the same: a search
	// evaluates one candidate at a time, in visit order.  Wider passes were
	// removed (see Validate); the member stays so that specs naming it
	// still decode.
	MaxConcurrentEvals int `json:"max_concurrent_evals,omitempty"`
}

// DefaultGamma is the confidence level used when Policy.Gamma is zero.
const DefaultGamma = 0.95

// DefaultPolicy returns the recommended policy: pruning on, three sample
// stages with a 10% relative-precision early stop at γ=0.95, and the
// F-cache enabled.
func DefaultPolicy() Policy {
	return Policy{Prune: true, Stages: 3, Epsilon: 0.1, Gamma: DefaultGamma, Cache: true}
}

// Enabled reports whether any mechanism of the policy is switched on.
func (p Policy) Enabled() bool {
	return p.Prune || p.Stages > 1 || p.Cache
}

// Validate reports whether the policy is usable.  Zero values are fine
// (they disable the mechanism or select a documented default); negative
// stage counts, precision targets that are negative or not finite, and
// confidence levels outside [0,1) are configuration mistakes and are rejected
// with a clear error, and so is an evaluation concurrency other than 0 or
// 1.  NaN fails every comparison, so the float checks ask for what is valid:
// a NaN ε would pass a sign check and then never let the early stop fire.
func (p Policy) Validate() error {
	if p.Stages < 0 {
		return fmt.Errorf("eval: negative stage count %d (use 0 or 1 for unstaged evaluation)", p.Stages)
	}
	if !(p.Epsilon >= 0 && !math.IsInf(p.Epsilon, 1)) {
		return fmt.Errorf("eval: invalid early-stop precision %v (want a finite ε ≥ 0; use 0 to disable the early stop)", p.Epsilon)
	}
	if !(p.Gamma >= 0 && p.Gamma < 1) {
		return fmt.Errorf("eval: confidence level %v outside [0,1) (use 0 for the default of %v)",
			p.Gamma, DefaultGamma)
	}
	if p.MaxConcurrentEvals < 0 || p.MaxConcurrentEvals > 1 {
		return fmt.Errorf("eval: max_concurrent_evals %d: a search evaluates one candidate at a time since wider passes were removed (use 0 or 1)",
			p.MaxConcurrentEvals)
	}
	return nil
}

// EffectiveGamma returns the confidence level with the default applied.
func (p Policy) EffectiveGamma() float64 {
	if p.Gamma == 0 {
		return DefaultGamma
	}
	return p.Gamma
}

// FullPrecision is the estimate variant of policies whose evaluations
// always solve the full sample (no early stop).  Full-precision estimates
// satisfy a cache lookup under any variant, since no policy asks for more.
const FullPrecision = "full"

// variant fingerprints the precision of the estimates a policy produces,
// for the cache: two policies share estimates only if their staged
// early-stop settings agree (pruned evaluations certify facts and are
// shared unconditionally).  Pruning itself never changes a completed
// estimate, so it is not part of the fingerprint.
func (p Policy) variant() string {
	if p.Epsilon <= 0 || p.Stages <= 1 {
		// No early stop: every estimate covers the full sample.
		return FullPrecision
	}
	return fmt.Sprintf("s%d,e%g,g%g", p.Stages, p.Epsilon, p.EffectiveGamma())
}

// StagePlan returns the cumulative stage boundaries for a sample of size n:
// a strictly increasing slice ending at n, one entry per stage.  Stages grow
// geometrically toward n (stages=3, n=100 → [25 50 100]).  A stage count of
// one or less, or a sample too small to split, yields the single boundary
// [n].
func StagePlan(n, stages int) []int {
	if n <= 0 {
		return nil
	}
	if stages <= 1 {
		return []int{n}
	}
	plan := make([]int, 0, stages)
	prev := 0
	for i := 0; i < stages; i++ {
		end := n >> uint(stages-1-i)
		if end <= prev {
			continue // sample too small for this many distinct stages
		}
		plan = append(plan, end)
		prev = end
	}
	if len(plan) == 0 || plan[len(plan)-1] != n {
		plan = append(plan, n)
	}
	return plan
}

// Confident reports whether a sample with the given mean, standard
// deviation and size satisfies the staged early-stop criterion: the eq.-3
// confidence half-width δ_γ·σ/√n is at or below ε·mean.  Samples of fewer
// than two observations carry no variance information and are never
// confident; a zero ε disables the early stop.
func Confident(mean, stddev float64, n int, gamma, epsilon float64) bool {
	if epsilon <= 0 || n < 2 {
		return false
	}
	half := montecarlo.ConfidenceHalfWidth(stddev, n, gamma)
	return half <= epsilon*mean
}

// Evaluation is the outcome of one budget-aware F evaluation: what the pdsat
// Scope returns, what the Cache keeps and what a search judges.
type Evaluation struct {
	// Point is the evaluated decomposition set.
	Point decomp.Point `json:"-"`
	// Value is the evaluation's headline number: the Monte Carlo estimate
	// of F for complete, early-stopped and interrupted evaluations, or the
	// incumbent a pruned one was compared against, as it certifies only
	// that F exceeds it.  With SamplesCensored > 0 the estimate is itself a
	// lower bound, the restricted mean of costs capped at the per-subproblem
	// budget.
	Value float64 `json:"value"`
	// Estimate is the Monte Carlo estimate over the fully solved samples.
	// In a pruned evaluation it covers the completed prefix, which is
	// biased high (the evaluation aborted because the costs were large),
	// and exists for diagnostics only.
	Estimate montecarlo.Estimate `json:"estimate"`
	// Sample holds the raw costs the Estimate is computed from, in
	// enumeration order: fewer than SamplesPlanned when the evaluation ended
	// early.  The Cache keeps no sample, so a cache hit has none.
	Sample *montecarlo.Sample `json:"-"`
	// Pruned reports that the evaluation was aborted because its partial
	// lower bound 2^d·(Σζ)/N exceeded the incumbent.
	Pruned bool `json:"pruned,omitempty"`
	// EarlyStopped reports that staged sampling stopped before the full
	// sample because the confidence half-width met the ε target.
	EarlyStopped bool `json:"early_stopped,omitempty"`
	// CacheHit reports that the evaluation was served from the F-cache
	// without solving anything.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Interrupted reports a context cancellation mid-evaluation.  The
	// estimate then uses only the subproblems that completed, which skews
	// toward cheap ones (the expensive ones are the likeliest to be in
	// flight at the interrupt), so it is a rough indication rather than an
	// unbiased estimate — unlike a pruned or early-stopped evaluation, whose
	// sample prefix is value-independent.
	Interrupted bool `json:"interrupted,omitempty"`
	// SamplesPlanned is N; SamplesSolved counts subproblems solved to
	// completion (full Monte Carlo samples); SamplesAborted counts
	// subproblems of the stages the evaluation reached that were cut short
	// by the abort (truncated mid-solve or drained as placeholders).
	// Samples of stages it never reached — behind an early stop or a
	// prune — appear in no counter: SamplesPlanned − SamplesSolved −
	// SamplesAborted is the work the policy skipped.
	SamplesPlanned int `json:"samples_planned"`
	SamplesSolved  int `json:"samples_solved"`
	SamplesAborted int `json:"samples_aborted"`
	// SamplesCensored counts solved samples that ended at the configured
	// per-subproblem budget without an answer: their cost is the cap, so
	// with any censored sample Value is a restricted-mean lower bound on F,
	// and a search ranks the point at +Inf.  A task stopped by a tighter
	// pruning allowance is the prune certificate, not a censored sample.
	SamplesCensored int `json:"samples_censored,omitempty"`
	// StagesRun counts the sample stages the evaluation reached (stages
	// are checkpoints on one dispatched sample, not dispatches).
	StagesRun int `json:"stages_run"`
	// SatisfiableSamples counts satisfiable subproblems among the solved.
	SatisfiableSamples int `json:"satisfiable_samples"`
	// WallTime is the elapsed time of the evaluation (the original
	// evaluation's for cache hits).
	WallTime time.Duration `json:"wall_time_ns"`
}

// Evaluation returns ev itself: the spelling of the benchmark module, which
// converted the evaluation's former pdsat form with it.  It goes when the
// benchmark reads the product's own records.
func (ev Evaluation) Evaluation() Evaluation { return ev }

// Evaluator evaluates the predictive function at a point under an incumbent
// bound: the best F value the caller has already certified.  Evaluations may
// exploit the incumbent by pruning (returning early, valued at the incumbent,
// once F is certified above it); callers that have no incumbent pass +Inf.
// It is what the optimize package's searches minimize (optimize.Objective),
// one evaluation at a time: each draws its Monte Carlo sample from the next
// evaluation slot of the pdsat Scope behind it (sample = f(scope seed,
// slot)).
type Evaluator interface {
	EvaluateF(ctx context.Context, p decomp.Point, incumbent float64) (*Evaluation, error)
}

// Backend performs the actual solving of an evaluation's sample under a
// policy.  The implementation is the pdsat Scope behind an Objective
// (pdsat.NewObjective).  A backend may return a partial Evaluation together
// with a context error.
type Backend interface {
	// ReserveEvalSlots reserves n consecutive evaluation slots and returns
	// the first (Engine.ReserveSlots).
	ReserveEvalSlots(n int) int
	// EvaluateSlot evaluates the point under the policy and incumbent with
	// the sample drawn from the given pre-reserved slot, or from the next one
	// when slot < 0.
	EvaluateSlot(ctx context.Context, p decomp.Point, pol Policy, incumbent float64, slot int) (*Evaluation, error)
}

// Engine composes the three mechanisms over a Backend: cache lookup first,
// then a policy-driven backend evaluation, then cache insertion.  It
// implements Evaluator.  An Engine is safe for concurrent use if its backend
// is.
type Engine struct {
	backend Backend
	policy  Policy
	cache   *Cache

	// OnPruned, when non-nil, is called after every pruned evaluation (for
	// event streams); OnCacheHit after every evaluation served from the
	// cache.  Both run on the evaluating goroutine and must not block.
	OnPruned   func(p decomp.Point, ev Evaluation)
	OnCacheHit func(p decomp.Point, ev Evaluation)
}

// NewEngine creates an engine over the backend.  cache may be nil (or the
// policy's Cache flag off) to disable memoization; a shared *Cache makes
// several engines (e.g. one per job) hit each other's results.
func NewEngine(backend Backend, pol Policy, cache *Cache) *Engine {
	if !pol.Cache {
		cache = nil
	}
	return &Engine{backend: backend, policy: pol, cache: cache}
}

// EvaluateF implements Evaluator: EvaluateSlotF with no slot reserved, so the
// backend draws the next one.
func (e *Engine) EvaluateF(ctx context.Context, p decomp.Point, incumbent float64) (*Evaluation, error) {
	return e.EvaluateSlotF(ctx, p, incumbent, -1)
}

// ReserveSlots reserves n consecutive slots of the backend and returns the
// first; ok is always true.  No search reserves slots, since each evaluation
// draws the next one; callers that pin a sample to a slot pass it to
// EvaluateSlotF.
func (e *Engine) ReserveSlots(n int) (int, bool) { return e.backend.ReserveEvalSlots(n), true }

// EvaluateSlotF is the one body of EvaluateF: cache lookup, policy
// evaluation, memoization, hooks, with the sample drawn from the given
// reserved slot, or from the next one when slot < 0.  A cache hit leaves the
// slot unused.
func (e *Engine) EvaluateSlotF(ctx context.Context, p decomp.Point, incumbent float64, slot int) (*Evaluation, error) {
	key, variant := p.Key(), e.policy.variant()
	if ev, ok := e.cache.Lookup(key, variant, incumbent); ok {
		ev.CacheHit = true
		if e.OnCacheHit != nil {
			e.OnCacheHit(p, ev)
		}
		return &ev, nil
	}
	ev, err := e.backend.EvaluateSlot(ctx, p, e.policy, incumbent, slot)
	if ev == nil || err != nil {
		// Interrupted or failed evaluations are not cached: their partial
		// estimates are completion-censored, not reusable facts.
		return ev, err
	}
	if ev.Pruned && e.OnPruned != nil {
		e.OnPruned(p, *ev)
	}
	e.cache.Store(key, variant, *ev)
	return ev, nil
}

// CacheStats returns the shared cache's counters (zero if disabled).
func (e *Engine) CacheStats() CacheStats { return e.cache.Stats() }

// CacheStats are the F-cache's lifetime counters.
type CacheStats struct {
	// Hits and Misses count Lookup outcomes; Size is the number of points
	// currently memoized.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Size   int    `json:"size"`
}

// Cache is the point-keyed F-memoization store.  Complete and early-stopped
// evaluations are cached as estimates under the precision variant of the
// policy that produced them (Policy.variant), so a coarse early-stopped
// estimate is never served to a caller whose policy asked for full-sample
// precision; a FullPrecision estimate, being the most precise possible,
// satisfies any variant.  A pruned evaluation is cached with the incumbent it
// was pruned against, its Value, independent of variant (F above it is a
// certified fact): it hits when that incumbent is at least the caller's —
// F above it then proves the point worse than the best the caller already
// has — and against a higher incumbent it proves nothing, so the point must
// be re-evaluated.  The zero *Cache (nil) is a valid disabled cache.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry // guarded by mu
	hits    uint64                 // guarded by mu
	misses  uint64                 // guarded by mu
}

type cacheEntry struct {
	// estimates maps a policy precision variant to the estimate it
	// produced; bound is the pruned evaluation with the highest incumbent.
	estimates map[string]Evaluation
	bound     *Evaluation
}

// NewCache creates an empty cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[string]*cacheEntry)}
}

// Lookup returns the cached evaluation for the key if one is usable at the
// requested precision variant and against the incumbent.  A nil cache never
// hits (and counts nothing).
func (c *Cache) Lookup(key, variant string, incumbent float64) (Evaluation, bool) {
	if c == nil {
		return Evaluation{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		if ev, ok := e.estimates[variant]; ok {
			c.hits++
			return ev, true
		}
		if ev, ok := e.estimates[FullPrecision]; ok {
			// A full-sample estimate is at least as precise as whatever the
			// caller's policy would produce.
			c.hits++
			return ev, true
		}
		if e.bound != nil && e.bound.Value >= incumbent {
			c.hits++
			return *e.bound, true
		}
	}
	c.misses++
	return Evaluation{}, false
}

// Store memoizes a finished evaluation under the producing policy's
// precision variant.  Estimates overwrite same-variant estimates; a pruned
// evaluation replaces the point's one only if pruned against a higher
// incumbent, and coexists with estimates.  A nil cache ignores the call.
func (c *Cache) Store(key, variant string, ev Evaluation) {
	if c == nil {
		return
	}
	ev.CacheHit, ev.Sample = false, nil
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{}
		c.entries[key] = e
	}
	if ev.Pruned {
		if e.bound == nil || ev.Value > e.bound.Value {
			e.bound = &ev
		}
		return
	}
	if e.estimates == nil {
		e.estimates = make(map[string]Evaluation, 1)
	}
	e.estimates[variant] = ev
}

// Len returns the number of memoized points.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns the cache counters (zero for a nil cache).
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Size: len(c.entries)}
}
