package pdsat

import (
	"context"
	"math"
	"sync"

	"github.com/paper-repro/pdsat-go/internal/optimize"
	runner "github.com/paper-repro/pdsat-go/internal/pdsat"
)

// searchRun is one search of a race: a metaheuristic, the objective it
// minimizes, its start point and its options.
type searchRun struct {
	search searchFunc
	obj    optimize.Objective
	start  Point
	opts   SearchOptions
}

// newSearchRun builds one search of a job: the objective over the scope under
// the policy (see objectiveFor), and the session's search options with the
// job's event emission chained onto (not replacing) the observers the
// configuration already carries.  member tags the events; a plain search is
// member 0.
func (s *Session) newSearchRun(j *Job, search searchFunc, start Point, scope *runner.Scope, activity optimize.ActivitySource, pol EvalPolicy, member int) searchRun {
	opts := s.cfg.Search
	userNeighborhood := opts.NeighborhoodObserver
	opts.NeighborhoodObserver = func(nb optimize.Neighborhood) {
		if userNeighborhood != nil {
			userNeighborhood(nb)
		}
		j.emit(neighborhoodDoneEvent(j.id, member, nb))
	}
	userObserver := opts.Observer
	opts.Observer = func(v optimize.Visit) {
		if userObserver != nil {
			userObserver(v)
		}
		j.emit(SearchVisit{
			Job:      j.id,
			Member:   member,
			Index:    v.Index,
			Vars:     v.Point.SortedVars(),
			Value:    v.Value,
			Accepted: v.Accepted,
			Improved: v.Improved,
			Pruned:   v.Pruned,
		})
	}
	return searchRun{search: search, obj: s.objectiveFor(j, scope, activity, pol, member), start: start, opts: opts}
}

// runResult is one search's outcome in a race.
type runResult struct {
	// res is the search's result; searches stopped by the end of the race
	// report StopContext with their best so far.
	res *SearchResult
	// err is the search's hard error, nil for every normal termination.
	err error
	// best is the estimate of the search's best point, nil if the search
	// failed, certified nothing or the re-estimation produced nothing.
	best *SetEstimate
}

// race runs the searches concurrently and waits for all of them; every search
// of a job runs here, a SearchJob as a race of one.  The searches are coupled
// through the shared incumbent, handed to each run whose options carry none.
// Every search runs to its own budget or stop; only a hard error ends the
// race for the others.  onDone, when non-nil, is called from a search's
// goroutine as it finishes without error.
//
// Afterwards every certified best point is re-estimated through its run's own
// objective: a free cache hit with the F-cache on.  The re-estimation runs
// under ctx, not the ended race, and a search result stands even if it is cut
// short.
func (s *Session) race(ctx context.Context, runs []searchRun, shared *optimize.Incumbent, onDone func(member int, res *SearchResult)) []runResult {
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	out := make([]runResult, len(runs))
	var wg sync.WaitGroup
	for i, r := range runs {
		if r.opts.Shared == nil {
			r.opts.Shared = shared.MemberView(i)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := r.search(rctx, r.obj, r.start, r.opts)
			out[i] = runResult{res: res, err: err}
			if err != nil {
				cancel()
				return
			}
			if onDone != nil {
				onDone(i, res)
			}
		}()
	}
	wg.Wait()
	for i, r := range runs {
		res := out[i].res
		if out[i].err != nil || math.IsInf(res.BestValue, 1) {
			continue
		}
		if ev, _ := r.obj.EvaluateF(ctx, res.BestPoint, math.Inf(1)); ev != nil {
			out[i].best = s.setEstimateFrom(res.BestPoint, ev)
		}
	}
	return out
}
