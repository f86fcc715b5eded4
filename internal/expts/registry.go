package expts

import (
	"context"
	"fmt"
	"sort"
)

// Experiment is a runnable experiment of the paper's evaluation section.
type Experiment struct {
	// ID is the short identifier used on the command line
	// ("table1", "fig3", ...).
	ID string
	// Paper names the table or figure of the paper being reproduced.
	Paper string
	// Description summarizes what is measured.
	Description string
	// Run executes the experiment and returns the rendered tables.
	Run func(ctx context.Context, scale Scale) ([]*Table, error)
}

// Experiments returns the registry of all experiments, sorted by ID.
func Experiments() []Experiment {
	exps := []Experiment{
		{
			ID:          "table1",
			Paper:       "Table 1",
			Description: "A5/1: predictive-function values of the manual set S1 and the sets found by simulated annealing (S2) and tabu search (S3)",
			Run:         tables(RunA51, (*A51Result).Table1),
		},
		{
			ID:          "fig1",
			Paper:       "Figure 1",
			Description: "A5/1: the manual decomposition set S1 laid out over the three registers",
			Run:         tables(a51Manual, (*A51Result).Figure1),
		},
		{
			ID:          "fig2",
			Paper:       "Figures 2a/2b",
			Description: "A5/1: decomposition sets found by simulated annealing and tabu search",
			Run:         tables(RunA51, (*A51Result).Figure2a, (*A51Result).Figure2b),
		},
		{
			ID:          "table2",
			Paper:       "Table 2",
			Description: "Bivium: time estimations from a fixed strategy, a solver-activity set and the PDSAT tabu search",
			Run:         tables(RunBivium, (*BiviumResult).Table2),
		},
		{
			ID:          "fig3",
			Paper:       "Figure 3",
			Description: "Bivium: decomposition set found by the tabu search, laid out over the two registers",
			Run:         tables(RunBivium, (*BiviumResult).Figure3),
		},
		{
			ID:          "fig4",
			Paper:       "Figure 4",
			Description: "Grain: decomposition set found by the tabu search and its NFSR/LFSR split",
			Run:         tables(RunGrain, (*GrainResult).Figure4),
		},
		{
			ID:          "table3",
			Paper:       "Table 3",
			Description: "Weakened BiviumK/GrainK problems: predicted vs. measured cost of processing whole decomposition families",
			Run:         tables(RunTable3, (*Table3Result).Table3),
		},
		{
			ID:          "mc-convergence",
			Paper:       "Section 2 (eq. 2/3)",
			Description: "Monte Carlo estimate vs. exhaustive family cost for growing sample sizes",
			Run:         tables(RunConvergence, (*ConvergenceResult).TableConvergence),
		},
		{
			ID:          "sa-vs-tabu",
			Paper:       "Section 4.3 (remark)",
			Description: "Simulated annealing vs. tabu search under an equal evaluation budget",
			Run:         tables(RunSAvsTabu, (*SAvsTabuResult).TableSAvsTabu),
		},
		{
			ID:          "portfolio-vs-partitioning",
			Paper:       "Section 1 (context)",
			Description: "Portfolio approach vs. partitioning approach on the same weakened A5/1 instance",
			Run:         tables(RunPortfolioVsPartitioning, (*PortfolioVsPartitioningResult).TablePortfolio),
		},
		{
			ID:          "solver-ablation",
			Paper:       "supporting (design choices)",
			Description: "CDCL configuration ablation on sampled subproblems",
			Run:         tables(RunSolverAblation, (*AblationResult).TableAblation),
		},
	}
	sort.Slice(exps, func(i, j int) bool { return exps[i].ID < exps[j].ID })
	return exps
}

// tables adapts a run and the renderings of its result to Experiment.Run: it
// returns the tables of whatever result the run produced — Table 3's rows
// finished before an interruption included — together with the run's error.
func tables[R any](run func(context.Context, Scale) (*R, error), render ...func(*R) *Table) func(context.Context, Scale) ([]*Table, error) {
	return func(ctx context.Context, scale Scale) ([]*Table, error) {
		r, err := run(ctx, scale)
		if r == nil {
			return nil, err
		}
		out := make([]*Table, len(render))
		for i, f := range render {
			out[i] = f(r)
		}
		return out, err
	}
}

// FindExperiment returns the experiment with the given ID.
func FindExperiment(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("expts: unknown experiment %q", id)
}
