package expts

import (
	"context"
	"fmt"

	"github.com/paper-repro/pdsat-go/internal/cluster"
	"github.com/paper-repro/pdsat-go/internal/encoder"
	"github.com/paper-repro/pdsat-go/internal/montecarlo"
	api "github.com/paper-repro/pdsat-go/pdsat"
)

// WeakenedProblem identifies one weakened cryptanalysis problem of Table 3
// (the analogue of Bivium16/Bivium14/... and Grain44/Grain42/...).
type WeakenedProblem struct {
	// Name is the paper-style label, e.g. "Bivium165" (165 known state bits).
	Name string
	// Generator is "bivium" or "grain".
	Generator string
	// Known is the number of known (fixed) state bits.
	Known int
	// Unknown is the number of remaining unknown state bits.
	Unknown int
}

// WeakenedRow is one row of the Table 3 analogue: one weakened problem,
// solved on Table3Instances instances with the decomposition set estimated
// on the first instance.
type WeakenedRow struct {
	Problem WeakenedProblem
	// SetSize is |X̃best| used for all instances of this problem.
	SetSize int
	// Predicted1Core is F for instance 1 on one core.
	Predicted1Core float64
	// PredictedKCores is the extrapolation to Scale.Cores cores.
	PredictedKCores float64
	// TotalCosts holds the measured cost of processing the whole
	// decomposition family, one entry per instance.
	TotalCosts []float64
	// FirstSatCosts holds the measured cost up to the first satisfiable
	// subproblem, one entry per instance.
	FirstSatCosts []float64
	// FoundSat reports whether each instance's key was found.
	FoundSat []bool
	// KeysValid reports whether each recovered key reproduces its keystream.
	KeysValid []bool
	// Deviation is the average relative deviation between the prediction
	// and the measured totals.
	Deviation float64
}

// Table3Result is the full Table 3 analogue.
type Table3Result struct {
	Scale Scale
	Rows  []WeakenedRow
	// MeanDeviation is the average of per-row deviations (the paper reports
	// about 8% for its six weakened problems).
	MeanDeviation float64
}

// Table3Problems derives the list of weakened problems from the scale.
func Table3Problems(scale Scale) []WeakenedProblem {
	var out []WeakenedProblem
	for _, unknown := range scale.Table3Unknowns {
		known := encoder.Bivium().StateBits - unknown
		out = append(out, WeakenedProblem{
			Name:      fmt.Sprintf("Bivium%d", known),
			Generator: "bivium",
			Known:     known,
			Unknown:   unknown,
		})
	}
	for _, unknown := range scale.Table3Unknowns {
		known := encoder.Grain().StateBits - unknown
		out = append(out, WeakenedProblem{
			Name:      fmt.Sprintf("Grain%d", known),
			Generator: "grain",
			Known:     known,
			Unknown:   unknown,
		})
	}
	return out
}

// RunTable3 reproduces the protocol of Section 4.4: for every weakened
// problem, the predictive function is computed for the first instance, the
// resulting decomposition set (here: the full set of unknown starting
// variables) is used for all instances of the series, every decomposition
// family is processed completely, and the measured costs are compared with
// the prediction.
func RunTable3(ctx context.Context, scale Scale) (*Table3Result, error) {
	res := &Table3Result{Scale: scale}
	problems := Table3Problems(scale)
	var devSum float64
	var devCount int
	for _, prob := range problems {
		row, err := runWeakenedProblem(ctx, scale, prob)
		if err != nil {
			if cluster.IsInterruption(err) {
				// Interrupted (Ctrl-C or -timeout): keep the rows finished
				// so far and report them as a partial table.
				if devCount > 0 {
					res.MeanDeviation = devSum / float64(devCount)
				}
				return res, err
			}
			return nil, fmt.Errorf("expts: %s: %w", prob.Name, err)
		}
		res.Rows = append(res.Rows, *row)
		devSum += row.Deviation
		devCount++
	}
	if devCount > 0 {
		res.MeanDeviation = devSum / float64(devCount)
	}
	return res, nil
}

func runWeakenedProblem(ctx context.Context, scale Scale, prob WeakenedProblem) (*WeakenedRow, error) {
	gen, err := encoder.ByName(prob.Generator)
	if err != nil {
		return nil, err
	}
	ksLen := scale.BiviumKeystream
	if prob.Generator == "grain" {
		ksLen = scale.GrainKeystream
	}
	row := &WeakenedRow{Problem: prob}
	var deviations []float64
	for i := 0; i < scale.Table3Instances; i++ {
		inst, err := encoder.NewInstance(gen, encoder.Config{
			KeystreamLen: ksLen,
			KnownSuffix:  prob.Known,
			Seed:         scale.Seed + int64(100*i) + int64(prob.Known),
		})
		if err != nil {
			return nil, err
		}
		s, err := scale.session(inst, scale.runnerConfig(scale.Table3Samples))
		if err != nil {
			return nil, err
		}
		vars := inst.UnknownStartVars()
		if i == 0 {
			// The estimation is computed for the first instance of the
			// series, exactly as in the paper.
			est, estErr := estimate(ctx, s, vars)
			if estErr != nil {
				return nil, estErr
			}
			row.SetSize = len(est.Vars)
			row.Predicted1Core = est.Estimate.Value
			row.PredictedKCores = est.PerCores
		}
		solved, err := s.Run(ctx, api.SolveJob{Vars: vars})
		if err != nil {
			return nil, err
		}
		report := solved.Solve
		if report.Interrupted {
			// A solve reports cancellation in the report rather than as an
			// error; a truncated family measurement would corrupt this row
			// (undercounted costs, bogus deviation), so discard the
			// unfinished row and surface the interruption — RunTable3 keeps
			// the rows completed before it.
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return nil, context.Canceled
		}
		row.TotalCosts = append(row.TotalCosts, report.TotalCost)
		row.FirstSatCosts = append(row.FirstSatCosts, report.CostToFirstSat)
		row.FoundSat = append(row.FoundSat, report.FoundSat)
		row.KeysValid = append(row.KeysValid, s.Problem().KeyValid(report.Model))
		deviations = append(deviations, montecarlo.RelativeDeviation(row.Predicted1Core, report.TotalCost))
	}
	var sum float64
	for _, d := range deviations {
		sum += d
	}
	if len(deviations) > 0 {
		row.Deviation = sum / float64(len(deviations))
	}
	return row, nil
}

// Table3 renders the analogue of the paper's Table 3.
func (r *Table3Result) Table3() *Table {
	unit := r.Scale.CostUnit()
	header := []string{"Problem", "|set|", "F 1 core [" + unit + "]", fmt.Sprintf("F %d cores", r.Scale.Cores)}
	for i := 0; i < r.Scale.Table3Instances; i++ {
		header = append(header, fmt.Sprintf("family inst.%d", i+1))
	}
	for i := 0; i < r.Scale.Table3Instances; i++ {
		header = append(header, fmt.Sprintf("first SAT inst.%d", i+1))
	}
	t := &Table{
		Title:  "Table 3 — solving weakened cryptanalysis problems (prediction vs. measurement)",
		Header: header,
		Notes: []string{
			fmt.Sprintf("mean relative deviation of measured family cost from prediction: %.1f%% (the paper reports about 8%%)", 100*r.MeanDeviation),
			fmt.Sprintf("costs in %s; BiviumK/GrainK = K known state bits, as in the paper's notation", unit),
			fmt.Sprintf("scale %q: sample N=%d, %d instances per problem", r.Scale.Name, r.Scale.Table3Samples, r.Scale.Table3Instances),
		},
	}
	for _, row := range r.Rows {
		cells := []string{
			row.Problem.Name,
			fmt.Sprintf("%d", row.SetSize),
			fmtF(row.Predicted1Core),
			fmtF(row.PredictedKCores),
		}
		for _, c := range row.TotalCosts {
			cells = append(cells, fmtCost(c))
		}
		for i, c := range row.FirstSatCosts {
			mark := ""
			if i < len(row.FoundSat) && !row.FoundSat[i] {
				mark = " (no SAT)"
			}
			cells = append(cells, fmtCost(c)+mark)
		}
		t.Rows = append(t.Rows, cells)
	}
	return t
}
