package expts

import (
	"context"
	"fmt"

	"github.com/paper-repro/pdsat-go/internal/portfolio"
	api "github.com/paper-repro/pdsat-go/pdsat"
)

// portfolioVsPartitioning compares the two parallel-SAT approaches the
// paper's introduction discusses, on the same weakened A5/1 instance: a
// portfolio of differently-configured solvers attacking the whole instance
// versus processing the decomposition family of the unknown state variables
// with stop-on-SAT, so that both stop once a key is found.  Only the
// partitioning also predicts its effort in advance.
func portfolioVsPartitioning(ctx context.Context, scale Scale) ([]*Table, error) {
	inst, err := a51Instance(scale, scale.Seed+31)
	if err != nil {
		return nil, err
	}
	// Portfolio on the whole instance: TotalCost is the effort every member
	// burned until the first conclusive answer.
	race, err := portfolio.Solve(ctx, inst.CNF, portfolio.Options{
		Workers:    scale.Workers,
		CostMetric: scale.CostMetric,
	})
	if err != nil {
		return nil, err
	}
	// Partitioning of the unknown start variables with stop-on-SAT.
	s, err := scale.session(inst, scale.runnerConfig(scale.SearchSamples))
	if err != nil {
		return nil, err
	}
	predicted, err := estimate(ctx, s, nil)
	if err != nil {
		return nil, err
	}
	solved, err := s.Run(ctx, api.SolveJob{StopOnSat: true})
	if err != nil {
		return nil, err
	}
	bothFoundKey := s.Problem().KeyValid(race.Model) && s.Problem().KeyValid(solved.Solve.Model)
	partitioning := fmtCost(solved.Solve.CostToFirstSat)
	if solved.Solve.CostToFirstSatLowerBound {
		partitioning = "≥" + partitioning
	}
	return []*Table{{
		Title:  "Portfolio vs. partitioning on the same weakened A5/1 instance",
		Header: []string{"Approach", "Effort to key [" + scale.CostUnit() + "]", "Predictable in advance?"},
		Rows: [][]string{
			{fmt.Sprintf("portfolio (winner: %s)", race.Winner), fmtCost(race.TotalCost), "no"},
			{"partitioning (stop on SAT)", partitioning, fmt.Sprintf("yes (F = %s)", fmtF(predicted.Estimate.Value))},
		},
		Notes: []string{
			fmt.Sprintf("instance %s; both approaches recovered a valid key: %v", inst.Name, bothFoundKey),
			"the partitioning approach additionally yields the predictive value shown in parentheses — the paper's core argument for it",
		},
	}}, nil
}
