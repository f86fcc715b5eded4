package expts

import (
	"context"
	"fmt"

	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/montecarlo"
	api "github.com/paper-repro/pdsat-go/pdsat"
)

// ConvergencePoint is one sample-size step of the Monte Carlo convergence
// experiment.
type ConvergencePoint struct {
	// N is the sample size.
	N int
	// Estimate is the predictive-function value at that sample size.
	Estimate float64
	// Deviation is the relative deviation from the exhaustively computed
	// total cost.
	Deviation float64
	// IntervalContainsExact reports whether the 95% CLT interval of eq. (3)
	// contains the exhaustive value.
	IntervalContainsExact bool
}

// ConvergenceResult validates eq. (2)/(3): for a decomposition set small
// enough to enumerate, the exact total cost t_{C,A}(X̃) is computed by
// processing the whole family, and Monte Carlo estimates with growing sample
// sizes are compared against it.
type ConvergenceResult struct {
	Scale Scale
	// Dimension is d of the enumerated decomposition set.
	Dimension int
	// Exact is the exhaustive total cost (eq. 2).
	Exact  float64
	Points []ConvergencePoint
}

// RunConvergence runs the Monte Carlo convergence experiment on a weakened
// A5/1 instance.
func RunConvergence(ctx context.Context, scale Scale) (*ConvergenceResult, error) {
	inst, err := A51Instance(scale, scale.Seed+7)
	if err != nil {
		return nil, err
	}
	exact, err := scale.session(inst, scale.runnerConfig(scale.EstimateSamples))
	if err != nil {
		return nil, err
	}
	// Use an enumerable subset of the start set.
	vars := firstVars(exact, 10)
	solved, err := exact.Run(ctx, api.SolveJob{Vars: vars})
	if err != nil {
		return nil, err
	}
	res := &ConvergenceResult{Scale: scale, Dimension: len(vars), Exact: solved.Solve.TotalCost}

	for _, n := range []int{10, 30, 100, 300, 1000} {
		if n > scale.EstimateSamples*5 {
			break
		}
		s, err := scale.session(inst, scale.runnerConfig(n))
		if err != nil {
			return nil, err
		}
		pe, err := estimate(ctx, s, vars)
		if err != nil {
			return nil, err
		}
		iv, err := pe.Estimate.ConfidenceInterval(0.95)
		contains := err == nil && iv.Contains(res.Exact)
		res.Points = append(res.Points, ConvergencePoint{
			N:                     n,
			Estimate:              pe.Estimate.Value,
			Deviation:             montecarlo.RelativeDeviation(res.Exact, pe.Estimate.Value),
			IntervalContainsExact: contains,
		})
	}
	return res, nil
}

// firstVars returns the first d variables of the session's search space (all
// of them if it has fewer): a subset small enough to enumerate.
func firstVars(s *api.Session, d int) []cnf.Var {
	vars := s.Space().Vars()
	return vars[:min(d, len(vars))]
}

// TableConvergence renders the convergence experiment.
func (r *ConvergenceResult) TableConvergence() *Table {
	t := &Table{
		Title:  "Monte Carlo convergence — predictive function vs. exhaustive family cost (eq. 2/3)",
		Header: []string{"N", "F estimate", "relative deviation", "95% interval contains exact"},
		Notes: []string{
			fmt.Sprintf("exact total cost of the 2^%d family: %s %s", r.Dimension, fmtF(r.Exact), r.Scale.CostUnit()),
		},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p.N),
			fmtF(p.Estimate),
			fmt.Sprintf("%.1f%%", 100*p.Deviation),
			fmt.Sprintf("%v", p.IntervalContainsExact),
		})
	}
	return t
}

// SAvsTabuResult compares the two metaheuristics under an equal evaluation
// budget (the paper's Section 4.3 remark that tabu search traverses more
// points per time unit motivated using it for Bivium and Grain).
type SAvsTabuResult struct {
	Scale Scale
	// Budget is the number of objective evaluations given to each method.
	Budget int
	// SABest / TabuBest are the best predictive values found.
	SABest   float64
	TabuBest float64
	// SAPoints / TabuPoints are the numbers of distinct points evaluated.
	SAPoints   int
	TabuPoints int
	// SASeconds / TabuSeconds are the wall-clock durations.
	SASeconds   float64
	TabuSeconds float64
}

// RunSAvsTabu runs both metaheuristics on the same weakened A5/1 instance
// with the same evaluation budget.
func RunSAvsTabu(ctx context.Context, scale Scale) (*SAvsTabuResult, error) {
	inst, err := A51Instance(scale, scale.Seed+13)
	if err != nil {
		return nil, err
	}
	res := &SAvsTabuResult{Scale: scale, Budget: scale.SearchEvaluations}

	run := func(method string) (*api.SearchOutcome, error) {
		s, serr := scale.session(inst, scale.runnerConfig(scale.SearchSamples))
		if serr != nil {
			return nil, serr
		}
		return search(ctx, s, method)
	}
	sa, err := run("sa")
	if err != nil {
		return nil, err
	}
	tabu, err := run("tabu")
	if err != nil {
		return nil, err
	}
	res.SABest = sa.Result.BestValue
	res.TabuBest = tabu.Result.BestValue
	res.SAPoints = distinctPoints(sa.Result)
	res.TabuPoints = distinctPoints(tabu.Result)
	res.SASeconds = sa.Result.WallTime.Seconds()
	res.TabuSeconds = tabu.Result.WallTime.Seconds()
	return res, nil
}

func distinctPoints(r *api.SearchResult) int {
	seen := map[string]bool{}
	for _, v := range r.Trace {
		seen[v.Point.Key()] = true
	}
	return len(seen)
}

// TableSAvsTabu renders the comparison.
func (r *SAvsTabuResult) TableSAvsTabu() *Table {
	t := &Table{
		Title:  "Simulated annealing vs. tabu search under an equal evaluation budget",
		Header: []string{"Method", "distinct points", "best F [" + r.Scale.CostUnit() + "]", "wall time [s]"},
		Notes: []string{
			fmt.Sprintf("budget: %d predictive-function evaluations, N=%d per evaluation", r.Budget, r.Scale.SearchSamples),
			"the paper chose tabu search for Bivium/Grain because it traverses more points per time unit",
		},
	}
	t.Rows = append(t.Rows,
		[]string{"simulated annealing", fmt.Sprintf("%d", r.SAPoints), fmtF(r.SABest), fmt.Sprintf("%.2f", r.SASeconds)},
		[]string{"tabu search", fmt.Sprintf("%d", r.TabuPoints), fmtF(r.TabuBest), fmt.Sprintf("%.2f", r.TabuSeconds)},
	)
	return t
}

// AblationResult compares solver configurations on the same sampled
// subproblems, supporting the CDCL design-choice discussion (restarts and
// phase saving on/off).
type AblationResult struct {
	Scale Scale
	Rows  []AblationRow
}

// AblationRow is one solver configuration's aggregate cost.
type AblationRow struct {
	Name     string
	MeanCost float64
}

// RunSolverAblation evaluates the same decomposition set under different
// solver options.
func RunSolverAblation(ctx context.Context, scale Scale) (*AblationResult, error) {
	inst, err := A51Instance(scale, scale.Seed+23)
	if err != nil {
		return nil, err
	}
	configs := []struct {
		name  string
		tweak func(*api.SolverOptions)
	}{
		{"default (restarts + phase saving + minimization)", func(*api.SolverOptions) {}},
		{"no phase saving", func(o *api.SolverOptions) { o.PhaseSaving = false }},
		{"no learned-clause minimization", func(o *api.SolverOptions) { o.MinimizeLearned = false }},
		{"rare restarts (base 10000)", func(o *api.SolverOptions) { o.RestartBase = 10000 }},
	}
	res := &AblationResult{Scale: scale}
	for _, c := range configs {
		rc := scale.runnerConfig(scale.SearchSamples)
		rc.SolverOptions = api.DefaultConfig().Runner.SolverOptions
		c.tweak(&rc.SolverOptions)
		s, err := scale.session(inst, rc)
		if err != nil {
			return nil, err
		}
		pe, err := estimate(ctx, s, firstVars(s, 12))
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AblationRow{Name: c.name, MeanCost: pe.Estimate.Mean})
	}
	return res, nil
}

// TableAblation renders the solver ablation.
func (r *AblationResult) TableAblation() *Table {
	t := &Table{
		Title:  "Solver ablation — mean subproblem cost under different CDCL configurations",
		Header: []string{"Configuration", "mean subproblem cost [" + r.Scale.CostUnit() + "]"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{row.Name, fmtCost(row.MeanCost)})
	}
	return t
}
