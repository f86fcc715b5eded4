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
	// Run executes the experiment: it runs its jobs on pdsat sessions and
	// draws its tables from their results.  An interrupted run may return
	// the tables it finished together with the interruption.
	Run func(ctx context.Context, scale Scale) ([]*Table, error)
}

// Experiments returns the registry of all experiments, sorted by ID.
func Experiments() []Experiment {
	exps := []Experiment{
		{
			ID:          "table1",
			Paper:       "Table 1",
			Description: "A5/1: predictive-function values of the manual set S1 and the sets found by simulated annealing (S2) and tabu search (S3)",
			Run:         func(ctx context.Context, s Scale) ([]*Table, error) { return a51Study(ctx, s, false) },
		},
		{
			ID:          "fig1",
			Paper:       "Figure 1",
			Description: "A5/1: the manual decomposition set S1 laid out over the three registers",
			Run:         figure1,
		},
		{
			ID:          "fig2",
			Paper:       "Figures 2a/2b",
			Description: "A5/1: decomposition sets found by simulated annealing and tabu search",
			Run:         func(ctx context.Context, s Scale) ([]*Table, error) { return a51Study(ctx, s, true) },
		},
		{
			ID:          "table2",
			Paper:       "Table 2",
			Description: "Bivium: time estimations from a fixed strategy, a solver-activity set and the PDSAT tabu search",
			Run:         func(ctx context.Context, s Scale) ([]*Table, error) { return biviumStudy(ctx, s, false) },
		},
		{
			ID:          "fig3",
			Paper:       "Figure 3",
			Description: "Bivium: decomposition set found by the tabu search, laid out over the two registers",
			Run:         func(ctx context.Context, s Scale) ([]*Table, error) { return biviumStudy(ctx, s, true) },
		},
		{
			ID:          "fig4",
			Paper:       "Figure 4",
			Description: "Grain: decomposition set found by the tabu search and its NFSR/LFSR split",
			Run:         figure4,
		},
		{
			ID:          "table3",
			Paper:       "Table 3",
			Description: "Weakened BiviumK/GrainK problems: predicted vs. measured cost of processing whole decomposition families",
			Run:         table3,
		},
		{
			ID:          "mc-convergence",
			Paper:       "Section 2 (eq. 2/3)",
			Description: "Monte Carlo estimate vs. exhaustive family cost for growing sample sizes",
			Run:         convergence,
		},
		{
			ID:          "sa-vs-tabu",
			Paper:       "Section 4.3 (remark)",
			Description: "Simulated annealing vs. tabu search under an equal evaluation budget",
			Run:         saVsTabu,
		},
		{
			ID:          "portfolio-vs-partitioning",
			Paper:       "Section 1 (context)",
			Description: "Portfolio approach vs. partitioning approach on the same weakened A5/1 instance",
			Run:         portfolioVsPartitioning,
		},
	}
	sort.Slice(exps, func(i, j int) bool { return exps[i].ID < exps[j].ID })
	return exps
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
