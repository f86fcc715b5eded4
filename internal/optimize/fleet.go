package optimize

// The coupling of a search fleet: the sub-seed rule that makes every member
// reproducible standalone, and the shared incumbent through which the members
// of a race prune against each other's best F.
//
// The paper runs Algorithm 1 (simulated annealing) and Algorithm 2 (tabu
// search) as separate PDSAT invocations and compares the decomposition sets
// they find (§3–4).  With the budget-aware evaluation engine, racing them is
// strictly better than running them one after another: every member's best F
// tightens the incumbent that prunes every other member's evaluations.  The
// race itself — goroutines, re-estimation — is the pdsat package's.

import (
	"math"
	"sync"
	"sync/atomic"

	"github.com/paper-repro/pdsat-go/internal/decomp"
)

// SubSeed derives the deterministic sub-seed of stream i from a root seed
// (a splitmix64 step, so neighbouring roots and streams decorrelate).  Fleet
// member i seeds its evaluation sampling with stream 3i and its search walk
// with 3i+1, so it can be reproduced standalone from (root, i) alone; stream
// 3i+2 is unused.  The rule is part of the public contract: it is documented
// in the README and re-exported by the pdsat package.
func SubSeed(root int64, i int) int64 {
	z := uint64(root) + (uint64(i)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Incumbent is the global atomic incumbent of a search fleet: the lowest
// certified F value any member has found.  Best is a lock-free load (it
// sits on every evaluation's path); offers take a mutex, which is fine
// because improvements are rare.  It implements the coupling half of
// SharedIncumbent via MemberView.
type Incumbent struct {
	bits atomic.Uint64 // Float64bits of the current best value

	mu sync.Mutex // serializes offers

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
