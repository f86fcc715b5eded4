package pdsat

import (
	"context"

	"github.com/paper-repro/pdsat-go/internal/decomp"
	"github.com/paper-repro/pdsat-go/internal/eval"
	"github.com/paper-repro/pdsat-go/internal/optimize"
)

// Objective is the predictive function as a search minimizes it: the
// evaluation engine over one scope, and the conflict activity the tabu search's
// getNewCenter reads.  The engine is embedded: EvaluateF — what a search
// calls, one candidate at a time, each drawing the next evaluation slot — is
// the objective's by promotion, and so are the OnPruned and OnCacheHit hooks.
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

// scopeBackend is a scope as the engine's eval.Backend; the slot reservation
// is the scope's own, promoted.
type scopeBackend struct {
	*Scope
	observe func(Progress)
}

// EvaluateSlot implements eval.Backend.
func (b scopeBackend) EvaluateSlot(ctx context.Context, p decomp.Point, pol eval.Policy, incumbent float64, slot int) (*eval.Evaluation, error) {
	return b.EvaluateSlotObserved(ctx, p, pol, incumbent, slot, b.observe)
}
