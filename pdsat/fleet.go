package pdsat

import (
	"context"
	"fmt"
	"math"
	"time"

	"github.com/paper-repro/pdsat-go/internal/optimize"
)

// MaxFleetMembers bounds the size of one fleet job; larger fleets are a
// configuration mistake (the session's transport capacity, not the member
// count, limits useful parallelism) and are rejected at submit time.
const MaxFleetMembers = 128

// SubSeed is the deterministic sub-seed derivation rule of fleet jobs,
// re-exported so a single fleet member can be reproduced standalone: member
// i of a fleet with root seed r samples its evaluations with SubSeed(r, 3i)
// and walks its search with SubSeed(r, 3i+1); stream 3i+2 is unused.  A
// SearchJob, a race of one, on a session configured with RunnerConfig.Seed =
// SubSeed(r, 0) and SearchOptions.Seed = SubSeed(r, 1) is bit-identical to
// the member of a fleet of one with root seed r.
func SubSeed(root int64, i int) int64 { return optimize.SubSeed(root, i) }

// FleetMemberSpec describes one homogeneous group of fleet members.
type FleetMemberSpec struct {
	// Method selects the group's metaheuristic, with the same spellings as
	// SearchJob.Method ("sa"/"tabu", default tabu).
	Method string `json:"method,omitempty"`
	// Count is the number of members in the group (0 means 1).
	Count int `json:"count,omitempty"`
}

// FleetJob races K concurrent searches — mixed strategies from one start
// set, deterministic per-member sub-seeds — against the session's single
// runner/cluster.  All members share the session F-cache and one
// global atomic incumbent: every member's best F immediately tightens the
// incumbent-pruning bound of every other member's evaluations, which makes
// the race strictly cheaper than running the same searches sequentially
// with isolated incumbents.
//
// The members race as a SearchJob's one search does, each through its own
// scope and engine, and each runs to its own budget or stop: only a hard
// error ends the race early.  Determinism contract: member i's evaluation
// sampling and search walk depend only on (Seed, i) — see SubSeed — so a
// fleet of one is bit-identical to a SearchJob under matching seeds, and a
// fixed-seed fleet yields deterministic per-member results regardless of
// interleaving as long as the effective evaluation policy has the
// cross-member couplings (Prune, Cache) off.  With pruning or the shared
// cache enabled, every member's best value remains a certified full
// estimate, but which evaluations get pruned or served from the cache
// depends on timing, so per-member traces may vary run to run — that
// variability is exactly the work the coupling saves.
//
// The job emits member-tagged SearchVisit/SampleProgress/EvalPruned/
// CacheHit events, a FleetMemberDone per finished member, an
// IncumbentImproved per global improvement, and produces JobResult.Fleet.
type FleetJob struct {
	// Members is the fleet composition, e.g.
	// {{Method:"tabu",Count:4},{Method:"sa",Count:4}}, in JSON
	// [{"method":"tabu","count":4},{"method":"sa","count":4}].
	Members []FleetMemberSpec `json:"members"`
	// Seed is the root seed all per-member sub-seeds derive from; 0 means
	// the session's search seed (or 1).
	Seed int64 `json:"seed,omitempty"`
	// Start is every member's starting decomposition set; empty means the
	// full start set, as in the paper.
	Start []Var `json:"start,omitempty"`
	// MaxEvaluations, when positive, is the fleet-total evaluation budget,
	// split fairly across the members (earlier members get the remainder).
	// Zero leaves every member on the session's per-search budget.
	MaxEvaluations int `json:"max_evaluations,omitempty"`
	// Policy optionally overrides the session's evaluation policy for every
	// member of this job.  Nil means the session default.
	Policy *EvalPolicy `json:"policy,omitempty"`
}

// Kind implements JobSpec.
func (FleetJob) Kind() JobKind { return JobFleet }

// expandedMember is one fully resolved fleet member.
type expandedMember struct {
	method string // normalized long name (MethodTabu / MethodSimulatedAnnealing)
	search searchFunc
}

// expand resolves the member groups into individual members with validated
// methods, and the fleet's start set into the point every member starts at.
func (spec FleetJob) expand(s *Session) ([]expandedMember, Point, error) {
	if len(spec.Members) == 0 {
		return nil, Point{}, fmt.Errorf("pdsat: fleet job needs at least one member")
	}
	start, err := s.pointFromVars(spec.Start)
	if err != nil {
		return nil, Point{}, err
	}
	var members []expandedMember
	for gi, g := range spec.Members {
		if g.Count < 0 {
			return nil, Point{}, fmt.Errorf("pdsat: fleet member group %d has negative count %d", gi, g.Count)
		}
		method, search, err := searchMethod(g.Method)
		if err != nil {
			return nil, Point{}, err
		}
		count := g.Count
		if count == 0 {
			count = 1
		}
		for k := 0; k < count; k++ {
			members = append(members, expandedMember{method: method, search: search})
			if len(members) > MaxFleetMembers {
				return nil, Point{}, fmt.Errorf("pdsat: fleet of more than %d members", MaxFleetMembers)
			}
		}
	}
	return members, start, nil
}

// Validate implements JobSpec.
func (spec FleetJob) Validate(s *Session) error {
	members, _, err := spec.expand(s)
	if err != nil {
		return err
	}
	if spec.MaxEvaluations > 0 && spec.MaxEvaluations < len(members) {
		// fairSplit would hand some members a zero budget, which the search
		// options mean as "unlimited" — the exact opposite of a tight total.
		return fmt.Errorf("pdsat: fleet evaluation budget %d below the member count %d (every member needs at least one evaluation)",
			spec.MaxEvaluations, len(members))
	}
	if spec.MaxEvaluations < 0 {
		return fmt.Errorf("pdsat: negative fleet evaluation budget %d (use 0 for the per-search default)",
			spec.MaxEvaluations)
	}
	if spec.Policy != nil {
		if err := spec.Policy.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// rootSeed resolves the fleet's root seed against the session defaults.
func (spec FleetJob) rootSeed(s *Session) int64 {
	if spec.Seed != 0 {
		return spec.Seed
	}
	if s.cfg.Search.Seed != 0 {
		return s.cfg.Search.Seed
	}
	return 1
}

// fairSplit divides a total evaluation budget across k members: every
// member gets total/k, the first total%k members one more.
func fairSplit(total, k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = total / k
		if i < total%k {
			out[i]++
		}
	}
	return out
}

// FleetMemberResult is one member's slice of a fleet job's result.
type FleetMemberResult struct {
	// Member is the member's 0-based index; Method its metaheuristic.
	Member int    `json:"member"`
	Method string `json:"method"`
	// EvalSeed and SearchSeed are the member's derived sub-seeds (SubSeed
	// streams 3i and 3i+1), recorded so the member can be reproduced
	// standalone.
	EvalSeed   int64 `json:"eval_seed"`
	SearchSeed int64 `json:"search_seed"`
	// StartVars is the member's start set, the fleet's.
	StartVars []Var `json:"start_vars"`
	// SearchSummary is what the wire carries of Result: best set, best F,
	// evaluations, stop reason (zero if the member failed before producing a
	// result).
	SearchSummary
	// Result is the member's raw search result; nil if the member failed
	// before producing one.
	Result *SearchResult `json:"-"`
	// Best is the estimate of the member's best point, re-evaluated through
	// the member's objective (a free cache hit when the F-cache is enabled).
	Best *SetEstimate `json:"best_estimate,omitempty"`
	// Err is the member's hard error, empty for normal termination.
	Err string `json:"error,omitempty"`
}

// FleetOutcome is the result of a fleet job.
type FleetOutcome struct {
	// Seed is the resolved root seed the sub-seeds derive from.
	Seed int64 `json:"seed"`
	// Members holds every member's outcome, indexed by member.
	Members []FleetMemberResult `json:"members"`
	// BestMember is the winning member's index (-1 if no member produced a
	// finite best value); BestVars/BestValue its best set and F, and Best
	// the member's estimate of that set.
	BestMember int          `json:"best_member"`
	BestVars   []Var        `json:"best_vars,omitempty"`
	BestValue  float64      `json:"best_value,omitempty"`
	Best       *SetEstimate `json:"best_estimate,omitempty"`
	// WallTime is the elapsed time of the whole race.
	WallTime time.Duration `json:"wall_time_ns"`
}

func (spec FleetJob) run(ctx context.Context, j *Job) (*JobResult, error) {
	s := j.session
	members, start, err := spec.expand(s)
	if err != nil {
		return nil, err
	}
	root := spec.rootSeed(s)
	pol := s.policyFor(spec.Policy)
	var budgets []int
	if spec.MaxEvaluations > 0 {
		budgets = fairSplit(spec.MaxEvaluations, len(members))
	}

	// The global atomic incumbent coupling the members; improvements stream
	// into the job's events in improvement order.
	shared := optimize.NewIncumbent()
	shared.OnImproved = func(member int, p Point, v float64) {
		j.emit(IncumbentImproved{Job: j.id, Member: member, Vars: p.SortedVars(), Value: v})
	}

	runs := make([]searchRun, len(members))
	for i, m := range members {
		// Each member evaluates through its own scope (isolated sampling
		// state and scope-local conflict activity over the shared transport)
		// and its own engine over the session's shared F-cache.
		scope := s.runner.NewScope(optimize.SubSeed(root, 3*i))
		r := s.newSearchRun(j, m.search, start, scope, scope, pol, i)
		r.opts.Seed = optimize.SubSeed(root, 3*i+1)
		if budgets != nil {
			r.opts.MaxEvaluations = budgets[i]
		}
		runs[i] = r
	}

	began := time.Now()
	results := s.race(ctx, runs, shared, func(member int, res *SearchResult) {
		j.emit(FleetMemberDone{
			Job:           j.id,
			Member:        member,
			Method:        members[member].method,
			SearchSummary: wireBest(res),
		})
	})
	outcome, err := fleetOutcome(root, members, runs, results)
	outcome.WallTime = time.Since(began)
	return &JobResult{Fleet: outcome}, err
}

// fleetOutcome assembles a fleet's result from its race: the winner is the
// member with the lowest finite best, ties to the lowest index, and the error
// is the first member's hard error, naming the member.
func fleetOutcome(root int64, members []expandedMember, runs []searchRun, results []runResult) (*FleetOutcome, error) {
	outcome := &FleetOutcome{Seed: root, Members: make([]FleetMemberResult, len(results)), BestMember: -1}
	var firstErr error
	for i, r := range results {
		m := FleetMemberResult{
			Member:        i,
			Method:        members[i].method,
			EvalSeed:      optimize.SubSeed(root, 3*i),
			SearchSeed:    optimize.SubSeed(root, 3*i+1),
			StartVars:     runs[i].start.SortedVars(),
			SearchSummary: wireBest(r.res),
			Result:        r.res,
			Best:          r.best,
		}
		switch {
		case r.err != nil:
			m.Err = r.err.Error()
			if firstErr == nil {
				firstErr = fmt.Errorf("pdsat: fleet member %d: %w", i, r.err)
			}
		case math.IsInf(r.res.BestValue, 1):
		case outcome.BestMember < 0 || r.res.BestValue < outcome.BestValue:
			outcome.BestMember = i
			outcome.BestVars = r.res.BestPoint.SortedVars()
			outcome.BestValue = r.res.BestValue
			outcome.Best = r.best
		}
		outcome.Members[i] = m
	}
	return outcome, firstErr
}
