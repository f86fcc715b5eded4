// Fleet orchestration: race several metaheuristic searches — mixed
// strategies, multi-restart start points, per-member sub-seeds — over one
// objective space concurrently, coupled through a single shared incumbent.
//
// The paper runs Algorithm 1 (simulated annealing) and Algorithm 2 (tabu
// search) as separate PDSAT invocations and compares the decomposition sets
// they find (§3–4).  With the budget-aware evaluation engine, racing them is
// strictly better than running them one after another: every member's best F
// tightens the incumbent that prunes every other member's evaluations, and
// (at the session layer) warms the shared F-cache.
package optimize

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/paper-repro/pdsat-go/internal/decomp"
)

// SubSeed derives the deterministic sub-seed of stream i from a root seed
// (a splitmix64 step, so neighbouring roots and streams decorrelate).  Fleet
// members use three streams each — by convention stream 3i seeds member i's
// evaluation sampling, 3i+1 its search walk and 3i+2 its start-point jitter
// — so a member can be reproduced standalone from (root, i) alone.  The rule
// is part of the public contract: it is documented in the README and
// re-exported by the pdsat package.
func SubSeed(root int64, i int) int64 {
	z := uint64(root) + (uint64(i)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Incumbent is the global atomic incumbent of a search fleet: the lowest
// certified F value any member has found, plus the point and member that
// found it.  Best is a lock-free load (it sits on every evaluation's path);
// offers take a mutex, which is fine because improvements are rare.  It
// implements the coupling half of SharedIncumbent via MemberView.
type Incumbent struct {
	bits atomic.Uint64 // Float64bits of the current best value

	mu     sync.Mutex
	point  decomp.Point // guarded by mu
	member int          // guarded by mu

	// OnImproved, when non-nil, is called (under the incumbent's lock, so
	// notifications arrive in improvement order) for every accepted offer.
	// It must not block and must not call back into the incumbent.  Set it
	// before the fleet starts.
	OnImproved func(member int, p decomp.Point, v float64)
}

// NewIncumbent returns an incumbent holding +Inf (no value yet).
func NewIncumbent() *Incumbent {
	in := &Incumbent{}
	in.bits.Store(math.Float64bits(math.Inf(1)))
	return in
}

// Best returns the current best value (+Inf if none).
func (in *Incumbent) Best() float64 { return math.Float64frombits(in.bits.Load()) }

// Snapshot returns the current best value with the point and member that
// produced it (member is -1 while the incumbent still holds +Inf).
func (in *Incumbent) Snapshot() (p decomp.Point, v float64, member int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	v = in.Best()
	if math.IsInf(v, 1) {
		return decomp.Point{}, v, -1
	}
	return in.point, v, in.member
}

// offer lowers the incumbent to v if it improves it.
func (in *Incumbent) offer(member int, p decomp.Point, v float64) bool {
	if math.IsNaN(v) {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if v >= in.Best() {
		return false
	}
	in.bits.Store(math.Float64bits(v))
	in.point, in.member = p, member
	if in.OnImproved != nil {
		in.OnImproved(member, p, v)
	}
	return true
}

// MemberView returns the member-tagged SharedIncumbent handed to one
// search's Options.Shared.
func (in *Incumbent) MemberView(member int) SharedIncumbent {
	return memberView{in: in, member: member}
}

type memberView struct {
	in     *Incumbent
	member int
}

func (m memberView) Best() float64 { return m.in.Best() }

func (m memberView) Offer(p decomp.Point, v float64) bool { return m.in.offer(m.member, p, v) }

// FleetMember describes one search of a fleet: a search function, a fully
// resolved objective (typically backed by its own evaluation scope, so its
// sampling is independent of the other members' scheduling), a start point
// and per-member options whose Seed has already been derived via SubSeed.
type FleetMember struct {
	// Search is the member's metaheuristic: TabuSearch or SimulatedAnnealing.
	Search func(ctx context.Context, obj Objective, start decomp.Point, opts Options) (*Result, error)
	// Objective evaluates F for this member.  Members may share one
	// objective, but per-member objectives with isolated sampling state are
	// what makes a fixed-seed fleet's results independent of interleaving.
	Objective Objective
	// Start is the member's starting decomposition set.
	Start decomp.Point
	// Opts are the member's search options; RunFleet injects the shared
	// incumbent into Opts.Shared when it is nil.
	Opts Options
}

// FleetOptions configure a fleet run.
type FleetOptions struct {
	// Shared is the fleet's global incumbent; nil means a fresh one.
	Shared *Incumbent
	// OnMemberDone, when non-nil, is called from the finishing member's
	// goroutine as each member completes (before the fleet-wide early-stop
	// decision).  It must not block for long.
	OnMemberDone func(member int, res *Result)
	// KeepRacing disables the fleet-wide early stop: by default the whole
	// fleet is cancelled as soon as one member exhausts its reachable space
	// or reaches its target value, since the remaining members are then
	// burning budget on a race that is already decided.
	KeepRacing bool
}

// MemberResult is one member's outcome within a fleet.
type MemberResult struct {
	// Member is the member's index in the fleet.
	Member int
	// Result is the member's search result (members cancelled by the
	// fleet-wide early stop report StopContext with their best so far).
	Result *Result
	// Err is the member's hard error, nil for every normal termination.
	Err error
}

// FleetResult is the outcome of a fleet run.
type FleetResult struct {
	// Members holds every member's outcome, indexed by member.
	Members []MemberResult
	// Best is the index of the winning member (lowest best value, ties to
	// the lowest index), or -1 if no member produced a finite best value.
	Best int
	// BestPoint and BestValue are the winning member's best point and F.
	BestPoint decomp.Point
	BestValue float64
	// WallTime is the elapsed time of the whole fleet.
	WallTime time.Duration
}

// RunFleet races the members concurrently, coupled through one shared
// incumbent, and waits for all of them.  Members run their searches with
// their own options and objectives; a member that hits its target value or
// exhausts its space ends the race for everyone (unless KeepRacing), and a
// member's hard error cancels the fleet and is returned alongside the
// partial result.  A fleet of one is bit-identical to calling its search
// function directly with the same objective, start and options.
func RunFleet(ctx context.Context, members []FleetMember, opts FleetOptions) (*FleetResult, error) {
	if len(members) == 0 {
		return nil, errors.New("optimize: empty fleet")
	}
	for i, m := range members {
		if m.Objective == nil {
			return nil, fmt.Errorf("optimize: fleet member %d has no objective", i)
		}
		if m.Search == nil {
			return nil, fmt.Errorf("optimize: fleet member %d has no search function", i)
		}
		if err := m.Opts.Validate(); err != nil {
			return nil, fmt.Errorf("optimize: fleet member %d: %w", i, err)
		}
	}
	shared := opts.Shared
	if shared == nil {
		shared = NewIncumbent()
	}
	//pdsat:nondeterministic WallTime reporting only; member results stay seed-deterministic
	start := time.Now()
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]MemberResult, len(members))
	var wg sync.WaitGroup
	for i := range members {
		m := members[i]
		o := m.Opts
		if o.Shared == nil {
			o.Shared = shared.MemberView(i)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := m.Search(fctx, m.Objective, m.Start, o)
			results[i] = MemberResult{Member: i, Result: res, Err: err}
			if err != nil {
				cancel()
				return
			}
			if opts.OnMemberDone != nil {
				opts.OnMemberDone(i, res)
			}
			if !opts.KeepRacing && (res.Stop == StopTarget || res.Stop == StopExhausted) {
				// The race is decided: this member either reached the target
				// or proved there is nothing left to explore from its start.
				cancel()
			}
		}()
	}
	wg.Wait()

	fr := &FleetResult{
		Members:   results,
		Best:      -1,
		BestValue: math.Inf(1),
		//pdsat:nondeterministic WallTime reporting only
		WallTime: time.Since(start),
	}
	var firstErr error
	for i, mr := range results {
		if mr.Err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("optimize: fleet member %d: %w", i, mr.Err)
			}
			continue
		}
		if mr.Result == nil || math.IsInf(mr.Result.BestValue, 1) {
			continue
		}
		if mr.Result.BestValue < fr.BestValue {
			fr.Best = i
			fr.BestPoint = mr.Result.BestPoint
			fr.BestValue = mr.Result.BestValue
		}
	}
	return fr, firstErr
}
