package pdsat

import (
	"context"
	"math"

	"github.com/paper-repro/pdsat-go/internal/decomp"
	"github.com/paper-repro/pdsat-go/internal/eval"
	"github.com/paper-repro/pdsat-go/internal/optimize"
)

// Objective is the predictive function as a search minimizes it: the
// evaluation engine over one scope, and the conflict activity the tabu search's
// getNewCenter reads.  The engine is embedded: its EvaluateF (the searches
// thread their incumbent into every evaluation) and its slot methods (a wide
// neighbourhood pass reserves a whole submission's evaluation slots upfront, so
// every candidate's sample is independent of the completion order) are the
// objective's by promotion, and so are its OnPruned and OnCacheHit hooks.
type Objective struct {
	*eval.Engine
	optimize.ActivitySource
}

// NewObjective wires optimizer → engine → scope, the one place it is done:
// evaluations run in sc under pol, memoized in cache when the policy enables
// it (nil for none), each sample result streamed to observe (nil for none).
// activity is where the search reads conflict activity — a fleet member its
// own scope, a search alone on a runner the runner, whose table is the roll-up
// of everything solved.
func NewObjective(sc *Scope, activity optimize.ActivitySource, pol eval.Policy, cache *eval.Cache, observe func(Progress)) *Objective {
	return &Objective{
		Engine:         eval.NewEngine(scopeBackend{Scope: sc, observe: observe}, pol, cache),
		ActivitySource: activity,
	}
}

// Evaluate implements optimize.Objective (the searches prefer EvaluateF).
func (o *Objective) Evaluate(ctx context.Context, p decomp.Point) (float64, error) {
	ev, err := o.EvaluateF(ctx, p, math.Inf(1))
	if err != nil {
		return 0, err
	}
	return ev.Value, nil
}

// scopeBackend is a scope as the engine's eval.SlotBackend; the slot
// reservation is the scope's own, promoted.
type scopeBackend struct {
	*Scope
	observe func(Progress)
}

// EvaluateBudgeted implements eval.Backend: the scope reserves the next slot.
func (b scopeBackend) EvaluateBudgeted(ctx context.Context, p decomp.Point, pol eval.Policy, incumbent float64) (*eval.Evaluation, error) {
	return b.EvaluateSlot(ctx, p, pol, incumbent, -1)
}

// EvaluateSlot implements eval.SlotBackend.
func (b scopeBackend) EvaluateSlot(ctx context.Context, p decomp.Point, pol eval.Policy, incumbent float64, slot int) (*eval.Evaluation, error) {
	return b.EvaluateSlotObserved(ctx, p, pol, incumbent, slot, b.observe)
}
