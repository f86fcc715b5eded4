package expts

import (
	"context"
	"fmt"

	"github.com/paper-repro/pdsat-go/internal/cluster"
	"github.com/paper-repro/pdsat-go/internal/encoder"
	"github.com/paper-repro/pdsat-go/internal/montecarlo"
	api "github.com/paper-repro/pdsat-go/pdsat"
)

// table3 reproduces the protocol of Section 4.4 on weakened problems, the
// analogues of Bivium16/14/12 and Grain44/42/40 with Table3Unknowns unknown
// state bits: for each, the predictive function is computed for the first
// instance, the resulting decomposition set (here: the full set of unknown
// starting variables) is used for all Table3Instances instances of the
// series, every decomposition family is processed completely, and the
// measured costs are compared with the prediction.
func table3(ctx context.Context, scale Scale) ([]*Table, error) {
	unit := scale.CostUnit()
	t := &Table{
		Title:  "Table 3 — solving weakened cryptanalysis problems (prediction vs. measurement)",
		Header: []string{"Problem", "|set|", "F 1 core [" + unit + "]", fmt.Sprintf("F %d cores", scale.Cores)},
	}
	for i := 0; i < scale.Table3Instances; i++ {
		t.Header = append(t.Header, fmt.Sprintf("family inst.%d", i+1))
	}
	for i := 0; i < scale.Table3Instances; i++ {
		t.Header = append(t.Header, fmt.Sprintf("first SAT inst.%d", i+1))
	}
	var devSum float64
	var err error
problems:
	for _, series := range []struct {
		label     string
		gen       encoder.Generator
		keystream int
	}{
		{"Bivium", encoder.Bivium(), scale.BiviumKeystream},
		{"Grain", encoder.Grain(), scale.GrainKeystream},
	} {
		for _, unknown := range scale.Table3Unknowns {
			// The paper's label counts the known state bits.
			known := series.gen.StateBits - unknown
			name := fmt.Sprintf("%s%d", series.label, known)
			var cells []string
			var dev float64
			if cells, dev, err = weakenedRow(ctx, scale, series.gen, series.keystream, known); err != nil {
				if !cluster.IsInterruption(err) {
					return nil, fmt.Errorf("expts: %s: %w", name, err)
				}
				// Interrupted (Ctrl-C or -timeout): keep the rows finished
				// so far and report them as a partial table.
				break problems
			}
			t.Rows = append(t.Rows, append([]string{name}, cells...))
			devSum += dev
		}
	}
	var meanDev float64
	if len(t.Rows) > 0 {
		meanDev = devSum / float64(len(t.Rows))
	}
	t.Notes = []string{
		fmt.Sprintf("mean relative deviation of measured family cost from prediction: %.1f%% (the paper reports about 8%%)", 100*meanDev),
		fmt.Sprintf("costs in %s; BiviumK/GrainK = K known state bits, as in the paper's notation", unit),
		fmt.Sprintf("scale %q: sample N=%d, %d instances per problem", scale.Name, scale.Table3Samples, scale.Table3Instances),
	}
	return []*Table{t}, err
}

// weakenedRow solves one weakened problem on Table3Instances instances with
// the set estimated on the first one.  It returns the row's cells after the
// problem's name — |set|, F on one core and on Cores cores, the measured
// family costs, the costs to the first satisfiable subproblem — and the
// average relative deviation of the measured family costs from F.
func weakenedRow(ctx context.Context, scale Scale, gen encoder.Generator, keystream, known int) ([]string, float64, error) {
	var predicted, devSum float64
	var cells, totals, firstSat []string
	for i := 0; i < scale.Table3Instances; i++ {
		inst, err := encoder.NewInstance(gen, encoder.Config{
			KeystreamLen: keystream,
			KnownSuffix:  known,
			Seed:         scale.Seed + int64(100*i) + int64(known),
		})
		if err != nil {
			return nil, 0, err
		}
		s, err := scale.session(inst, scale.runnerConfig(scale.Table3Samples))
		if err != nil {
			return nil, 0, err
		}
		vars := inst.UnknownStartVars()
		if i == 0 {
			// The estimation is computed for the first instance of the
			// series, exactly as in the paper.
			est, estErr := estimate(ctx, s, vars)
			if estErr != nil {
				return nil, 0, estErr
			}
			predicted = est.Estimate.Value
			cells = []string{fmt.Sprintf("%d", len(est.Vars)), fmtF(predicted), fmtF(est.PerCores)}
		}
		solved, err := s.Run(ctx, api.SolveJob{Vars: vars})
		if err != nil {
			return nil, 0, err
		}
		report := solved.Solve
		if report.Interrupted {
			// A solve reports cancellation in the report rather than as an
			// error; a truncated family measurement would corrupt this row
			// (undercounted costs, bogus deviation), so discard the
			// unfinished row and surface the interruption — table3 keeps the
			// rows completed before it.
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
			return nil, 0, context.Canceled
		}
		total := fmtCost(report.TotalCost)
		if report.MembersCensored > 0 {
			total = "≥" + total // the capped members count at the cap
		}
		totals = append(totals, total)
		firstSat = append(firstSat, firstSatCell(report, s.Problem()))
		devSum += montecarlo.RelativeDeviation(predicted, report.TotalCost)
	}
	return append(append(cells, totals...), firstSat...), devSum / float64(scale.Table3Instances), nil
}

// firstSatCell is a solve's cost to its first satisfiable subproblem, marked
// when the family had none or when the recovered state does not reproduce
// the instance's keystream.
func firstSatCell(report *api.SolveReport, p *api.Problem) string {
	mark := ""
	switch {
	case !report.FoundSat:
		mark = " (no SAT)"
	case !p.KeyValid(report.Model):
		mark = " (key invalid)"
	}
	return fmtCost(report.CostToFirstSat) + mark
}
