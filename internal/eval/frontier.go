package eval

// The neighborhood-parallel evaluation scheduler (conf_pact_SemenovZ15
// §3–4): the paper's PDSAT leader keeps every spare core busy by evaluating
// many candidate decomposition points concurrently.  A Frontier lets a
// search submit a whole neighborhood (or a speculative wave of likely-next
// candidates) as one set of concurrent evaluations over the shared
// transport, while preserving the search's sequential semantics:
//
//   - Submission order is the search's visit order, and results are
//     delivered to the caller strictly in that order, whatever order the
//     evaluations complete in.
//
//   - A live Bound — the best F certified so far, lowered the moment any
//     sibling's full estimate completes — is threaded into every in-flight
//     evaluation via its context, so sibling candidates prune each other
//     as results stream back (the backend re-reads the bound at its
//     pruning checkpoints, see LiveBoundFrom).
//
//   - When the caller decides the neighborhood's winner (its process
//     callback returns stop), the remaining siblings' per-candidate
//     contexts are cancelled: their in-flight subproblems receive the
//     solver interrupt and their results are drained and discarded.
//
// Determinism rule.  Which value each candidate's full estimate takes is
// scheduling-independent: evaluation slots are reserved for the whole
// submission upfront, so candidate j's Monte Carlo sample depends only on
// the backend's (seed, slot) derivation, never on completion order.  The
// neighborhood's winner is scheduling-independent too, because the
// minimum-F candidate can never be pruned by the live bound: its partial
// lower bound never exceeds its own full estimate, which is the smallest
// value any sibling can install as the bound, and pruning requires the
// bound to be strictly exceeded.  What IS scheduling-dependent under an
// active pruning policy is the set of non-winning candidates that get
// pruned (and the lower-bound values they report), the subproblem
// solved/aborted counts, and the conflict activity absorbed from truncated
// solves — exactly the work the coupling saves.

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"github.com/paper-repro/pdsat-go/internal/decomp"
)

// Bound is a live, monotonically decreasing incumbent shared by the
// concurrent evaluations of one frontier: the best certified F so far.
// Lowering and reading are lock-free and safe from any goroutine.
type Bound struct {
	bits atomic.Uint64
}

// NewBound creates a bound at the given initial value (+Inf for "no
// incumbent yet").
func NewBound(v float64) *Bound {
	b := &Bound{}
	b.bits.Store(math.Float64bits(v))
	return b
}

// Get returns the current bound.
func (b *Bound) Get() float64 { return math.Float64frombits(b.bits.Load()) }

// Lower moves the bound down to v if v is smaller, and reports whether it
// did.  Raising is impossible by construction; NaN is ignored.
func (b *Bound) Lower(v float64) bool {
	for {
		old := b.bits.Load()
		if !(v < math.Float64frombits(old)) {
			return false
		}
		if b.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return true
		}
	}
}

type liveBoundKey struct{}

// WithLiveBound attaches a live incumbent bound to the context of an
// evaluation.  Backends consult it (LiveBoundFrom) at their pruning
// checkpoints, so an evaluation started against a stale incumbent still
// benefits from every sibling result that completes while it runs.
func WithLiveBound(ctx context.Context, b *Bound) context.Context {
	if b == nil {
		return ctx
	}
	return context.WithValue(ctx, liveBoundKey{}, b)
}

// LiveBoundFrom returns the live incumbent bound attached to the context,
// or nil when the evaluation runs outside a frontier.
func LiveBoundFrom(ctx context.Context) *Bound {
	b, _ := ctx.Value(liveBoundKey{}).(*Bound)
	return b
}

// FrontierResult is one candidate's outcome, delivered to the process
// callback in submission order.
type FrontierResult struct {
	// Index is the candidate's position in the submitted slice.
	Index int
	// Point is the candidate itself.
	Point decomp.Point
	// Eval and Err are the evaluation's outcome; Eval may be a partial
	// (Interrupted) evaluation alongside a context error, and is nil when
	// the evaluation failed outright.
	Eval *Evaluation
	Err  error
}

// Frontier schedules the evaluation of candidate sequences over one
// evaluator; it is the only loop a search evaluates through.  At width 1 (or
// for a single candidate) it is a sequential loop: one evaluation at a time,
// each drawing the next evaluation slot when its turn comes, and the next
// begun only after process has seen the last.  Above 1 it runs up to width
// evaluations concurrently; see the comment at the top of this file for the
// concurrency and determinism contract.
type Frontier struct {
	ev    Evaluator
	width int
}

// NewFrontier creates a scheduler of the given width (the maximum number
// of in-flight evaluations) over the evaluator.
func NewFrontier(ev Evaluator, width int) *Frontier {
	if width < 1 {
		width = 1
	}
	return &Frontier{ev: ev, width: width}
}

// Width returns the scheduler's in-flight evaluation cap.
func (f *Frontier) Width() int { return f.width }

// Run evaluates the candidates and delivers their results to process in
// submission order.  bound is the live incumbent every evaluation starts
// from and prunes against (nil for none); Run lowers it whenever a
// candidate completes a full estimate, whatever order completions happen
// in, so siblings prune each other as early as possible.  process
// returning true stops the frontier: in-flight siblings are cancelled,
// unsubmitted ones skipped, and no further results are delivered.  Budget
// overshoot past a stop is bounded by the candidates already speculatively
// dispatched.
func (f *Frontier) Run(ctx context.Context, candidates []decomp.Point, bound *Bound, process func(FrontierResult) bool) {
	n := len(candidates)
	if n == 0 {
		return
	}
	if bound == nil {
		bound = NewBound(math.Inf(1))
	}
	if f.width <= 1 || n == 1 {
		// Nothing runs beside the one evaluation in flight, so nothing can
		// lower the bound while it runs: the incumbent it starts from is the
		// whole bound, and no live bound is attached.
		for i, p := range candidates {
			ev, err := f.ev.EvaluateSlotF(ctx, p, bound.Get(), -1)
			lowerOnFull(bound, ev, err)
			if process(FrontierResult{Index: i, Point: p, Eval: ev, Err: err}) {
				return
			}
		}
		return
	}

	// Reserve every candidate's evaluation slot upfront, in submission
	// order: the sample each candidate draws is then a pure function of the
	// backend seed and its slot, independent of which worker evaluates it
	// when (and of how many candidates a stop later discards).
	slotBase, slotted := f.ev.ReserveSlots(n)
	lctx := WithLiveBound(ctx, bound)

	width := f.width
	if width > n {
		width = n
	}
	var (
		stop    atomic.Bool
		next    atomic.Int64
		results = make(chan FrontierResult, n)
		cancels = make([]context.CancelFunc, n)
		cmu     sync.Mutex
		wg      sync.WaitGroup
	)
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || stop.Load() {
					return
				}
				cctx, cancel := context.WithCancel(lctx)
				cmu.Lock()
				cancels[i] = cancel
				cmu.Unlock()
				slot := -1
				if slotted {
					slot = slotBase + i
				}
				ev, err := f.ev.EvaluateSlotF(cctx, candidates[i], bound.Get(), slot)
				cancel()
				lowerOnFull(bound, ev, err)
				results <- FrontierResult{Index: i, Point: candidates[i], Eval: ev, Err: err}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Reorder completions into submission order and feed the caller.
	pending := make(map[int]FrontierResult, width)
	nextIdx := 0
	stopped := false
	for r := range results {
		if stopped {
			continue // drain
		}
		pending[r.Index] = r
		for {
			rr, ok := pending[nextIdx]
			if !ok {
				break
			}
			delete(pending, nextIdx)
			nextIdx++
			if process(rr) {
				stopped = true
				stop.Store(true)
				cmu.Lock()
				for _, cancel := range cancels {
					if cancel != nil {
						cancel()
					}
				}
				cmu.Unlock()
				break
			}
		}
	}
}

// lowerOnFull installs a completed full estimate as the new live bound.
// Pruned results carry lower bounds (not estimates) and interrupted ones
// are completion-censored; neither may tighten the bound.
func lowerOnFull(b *Bound, ev *Evaluation, err error) {
	if ev == nil || err != nil || ev.Pruned || ev.Interrupted {
		return
	}
	b.Lower(ev.Value)
}
