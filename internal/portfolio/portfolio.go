// Package portfolio implements the portfolio approach to parallel SAT
// solving that the paper's introduction contrasts with the partitioning
// approach: several differently-configured copies of the sequential solver
// attack the *same* instance concurrently and the first one to finish wins.
//
// It exists as a baseline: the experiments can compare "one instance, many
// solver configurations" (portfolio) against "many subproblems, one solver
// configuration" (partitioning, package pdsat) on the same weakened
// cryptanalysis instances.  Unlike the partitioning approach, the portfolio
// cannot use more workers than it has distinct configurations and gives no
// way to predict its runtime in advance — which is exactly the paper's
// motivation for partitionings with predictive functions.
//
// It is a race of goroutines in one process and nothing more: a cluster
// transport (internal/cluster) serves one formula under one solver
// configuration, tasks differing in their assumptions only, as PDSAT's workers
// do, and a portfolio — one set of assumptions under many configurations — is
// not a batch of such tasks.
package portfolio

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/solver"
)

// Member is one portfolio entry: a named solver configuration.
type Member struct {
	// Name identifies the configuration in reports.
	Name string
	// Options configures the CDCL solver.
	Options solver.Options
}

// DefaultMembers returns a diverse set of solver configurations in the
// spirit of portfolio solvers: different decay rates, restart strategies and
// default polarities.
func DefaultMembers() []Member {
	base := solver.DefaultOptions()

	fastDecay := base
	fastDecay.VarDecay = 0.85

	slowDecay := base
	slowDecay.VarDecay = 0.99

	rareRestarts := base
	rareRestarts.RestartBase = 1000

	positivePhase := base
	positivePhase.DefaultPhase = true

	noMinimize := base
	noMinimize.MinimizeLearned = false

	return []Member{
		{Name: "default", Options: base},
		{Name: "fast-decay", Options: fastDecay},
		{Name: "slow-decay", Options: slowDecay},
		{Name: "rare-restarts", Options: rareRestarts},
		{Name: "positive-phase", Options: positivePhase},
		{Name: "no-minimization", Options: noMinimize},
	}
}

// Result is the outcome of a portfolio run.
type Result struct {
	// Status is the overall outcome (the winner's status, or Unknown if no
	// member finished).
	Status solver.Status
	// Winner is the name of the member that finished first with a
	// conclusive answer ("" if none).
	Winner string
	// Model is the winner's model when Status == Sat.
	Model cnf.Assignment
	// WallTime is the elapsed time until the first conclusive answer (or
	// until every member gave up).
	WallTime time.Duration
	// TotalCost is the summed effort of all members until they were
	// stopped, in the given cost metric; it measures how much work the
	// portfolio burned in total, the quantity to compare against a
	// partitioning's family cost.
	TotalCost float64
	// MemberStats records the per-member effort.
	MemberStats map[string]solver.Stats
}

// Options configure a portfolio run.
type Options struct {
	// Members are the solver configurations to run; DefaultMembers() if nil.
	Members []Member
	// Workers bounds how many members run concurrently (0 = all).
	Workers int
	// CostMetric selects the effort unit for TotalCost.
	CostMetric solver.CostMetric
	// MemberBudget bounds each member's effort (0 fields = unlimited).
	MemberBudget solver.Budget
}

// Solve runs the portfolio on the formula and returns as soon as one member
// reports SAT or UNSAT (the remaining members are interrupted), or when all
// members stop without a conclusion.  Each member builds its solver when it
// gets a worker.
func Solve(ctx context.Context, f *cnf.Formula, opts Options) (*Result, error) {
	if f == nil {
		return nil, errors.New("portfolio: nil formula")
	}
	members := opts.Members
	if len(members) == 0 {
		members = DefaultMembers()
	}
	names := make(map[string]bool, len(members))
	for _, m := range members {
		if names[m.Name] {
			return nil, fmt.Errorf("portfolio: duplicate member name %q", m.Name)
		}
		names[m.Name] = true
	}
	workers := opts.Workers
	if workers <= 0 || workers > len(members) {
		workers = len(members)
	}

	start := time.Now()
	type memberResult struct {
		name string
		res  solver.Result
	}
	resCh := make(chan memberResult, len(members))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	innerCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	for _, m := range members {
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-innerCtx.Done():
				resCh <- memberResult{name: m.Name, res: solver.Result{Status: solver.Unknown, Interrupted: true}}
				return
			}
			s := solver.New(f, m.Options)
			s.SetBudget(opts.MemberBudget)
			done := make(chan solver.Result, 1)
			go func() { done <- s.Solve() }()
			select {
			case r := <-done:
				resCh <- memberResult{name: m.Name, res: r}
			case <-innerCtx.Done():
				s.Interrupt()
				resCh <- memberResult{name: m.Name, res: <-done}
			}
		}()
	}

	result := &Result{Status: solver.Unknown, MemberStats: make(map[string]solver.Stats, len(members))}
	for i := 0; i < len(members); i++ {
		mr := <-resCh
		result.MemberStats[mr.name] = mr.res.Stats
		if result.Winner == "" && (mr.res.Status == solver.Sat || mr.res.Status == solver.Unsat) {
			result.Status = mr.res.Status
			result.Winner = mr.name
			result.Model = mr.res.Model
			result.WallTime = time.Since(start)
			cancel() // stop the others
		}
	}
	wg.Wait()
	if result.Winner == "" {
		result.WallTime = time.Since(start)
	}
	// Sum in member order, not map order: float addition is not
	// associative, so ranging over the map would make TotalCost depend on
	// iteration order.
	for _, m := range members {
		if st, ok := result.MemberStats[m.Name]; ok {
			result.TotalCost += solver.EffortCost(st, opts.CostMetric)
		}
	}
	if err := ctx.Err(); err != nil && result.Winner == "" {
		return result, err
	}
	return result, nil
}
