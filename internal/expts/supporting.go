package expts

import (
	"context"
	"fmt"

	"github.com/paper-repro/pdsat-go/internal/montecarlo"
	api "github.com/paper-repro/pdsat-go/pdsat"
)

// convergence validates eq. (2)/(3) on a weakened A5/1 instance: for a
// decomposition set small enough to enumerate, the exact total cost
// t_{C,A}(X̃) is computed by processing the whole family, and Monte Carlo
// estimates with growing sample sizes are compared against it.
func convergence(ctx context.Context, scale Scale) ([]*Table, error) {
	inst, err := a51Instance(scale, scale.Seed+7)
	if err != nil {
		return nil, err
	}
	exact, err := scale.session(inst, scale.runnerConfig(scale.EstimateSamples))
	if err != nil {
		return nil, err
	}
	vars := firstVars(inst, 10)
	solved, err := exact.Run(ctx, api.SolveJob{Vars: vars})
	if err != nil {
		return nil, err
	}
	total := solved.Solve.TotalCost
	t := &Table{
		Title:  "Monte Carlo convergence — predictive function vs. exhaustive family cost (eq. 2/3)",
		Header: []string{"N", "F estimate", "relative deviation", "95% interval contains exact"},
		Notes:  []string{fmt.Sprintf("exact total cost of the 2^%d family: %s %s", len(vars), fmtF(total), scale.CostUnit())},
	}
	for _, n := range []int{10, 30, 100, 300, 1000} {
		if n > scale.EstimateSamples*5 {
			break
		}
		est, err := scale.estimateAt(ctx, inst, scale.runnerConfig(n), vars)
		if err != nil {
			return nil, err
		}
		iv, err := est.Estimate.ConfidenceInterval(0.95)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			fmtF(est.Estimate.Value),
			fmt.Sprintf("%.1f%%", 100*montecarlo.RelativeDeviation(total, est.Estimate.Value)),
			fmt.Sprintf("%v", err == nil && iv.Contains(total)),
		})
	}
	return []*Table{t}, nil
}

// saVsTabu runs both metaheuristics on the same weakened A5/1 instance under
// an equal evaluation budget (the paper's Section 4.3 remark that tabu
// search traverses more points per time unit motivated using it for Bivium
// and Grain).
func saVsTabu(ctx context.Context, scale Scale) ([]*Table, error) {
	inst, err := a51Instance(scale, scale.Seed+13)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Simulated annealing vs. tabu search under an equal evaluation budget",
		Header: []string{"Method", "distinct points", "best F [" + scale.CostUnit() + "]", "wall time [s]"},
		Notes: []string{
			fmt.Sprintf("budget: %d predictive-function evaluations, N=%d per evaluation", scale.SearchEvaluations, scale.SearchSamples),
			"the paper chose tabu search for Bivium/Grain because it traverses more points per time unit",
		},
	}
	for _, method := range []string{api.MethodSimulatedAnnealing, api.MethodTabu} {
		s, err := scale.session(inst, scale.runnerConfig(scale.SearchSamples))
		if err != nil {
			return nil, err
		}
		found, err := search(ctx, s, method)
		if err != nil {
			return nil, err
		}
		seen := map[string]bool{}
		for _, v := range found.Result.Trace {
			seen[v.Point.Key()] = true
		}
		t.Rows = append(t.Rows, []string{method, fmt.Sprintf("%d", len(seen)),
			fmtF(found.Result.BestValue), fmt.Sprintf("%.2f", found.Result.WallTime.Seconds())})
	}
	return []*Table{t}, nil
}
