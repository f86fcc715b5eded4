package expts

import (
	"context"
	"fmt"
	"sort"

	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/crypto"
	"github.com/paper-repro/pdsat-go/internal/encoder"
	api "github.com/paper-repro/pdsat-go/pdsat"
)

// biviumInstance builds the scaled Bivium cryptanalysis instance.
func biviumInstance(scale Scale, seed int64) (*encoder.Instance, error) {
	return encoder.NewInstance(encoder.Bivium(), encoder.Config{
		KeystreamLen: scale.BiviumKeystream,
		KnownSuffix:  scale.BiviumKnown,
		Seed:         seed,
	})
}

// eibachBiviumSet returns the fixed decomposition set used as the best
// strategy in [5]: the last `size` cells of the second shift register,
// restricted to unknown variables.  In the paper size is 45.
func eibachBiviumSet(inst *encoder.Instance, size int) []cnf.Var {
	unknown := make(map[cnf.Var]bool)
	for _, v := range inst.UnknownStartVars() {
		unknown[v] = true
	}
	var out []cnf.Var
	for i := crypto.BiviumStateBits - 1; i >= crypto.BiviumReg1Len && len(out) < size; i-- {
		v := inst.StartVars[i]
		if unknown[v] {
			out = append(out, v)
		}
	}
	// If the weakening has consumed the whole second register, extend with
	// the last unknown cells of the first register so the set keeps the
	// intended size.
	for i := crypto.BiviumReg1Len - 1; i >= 0 && len(out) < size; i-- {
		v := inst.StartVars[i]
		if unknown[v] {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// activityGuidedSet returns the `size` unknown start variables with the
// largest accumulated conflict activity over one estimate of the full start
// set.  It stands in for the CryptoMiniSat-internal variable choices of
// [18,19]: variables the solver fights over the most.
func activityGuidedSet(ctx context.Context, scale Scale, inst *encoder.Instance, size int) ([]cnf.Var, error) {
	s, err := scale.session(inst, scale.runnerConfig(scale.SearchSamples))
	if err != nil {
		return nil, err
	}
	if _, err := estimate(ctx, s, nil); err != nil {
		return nil, err
	}
	unknown := inst.UnknownStartVars()
	sort.Slice(unknown, func(i, j int) bool {
		ai, aj := s.VarActivity(unknown[i]), s.VarActivity(unknown[j])
		if ai != aj {
			return ai > aj
		}
		return unknown[i] < unknown[j]
	})
	out := append([]cnf.Var(nil), unknown[:min(size, len(unknown))]...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// biviumRegisters is the Bivium state: its two registers in start-variable
// order.
var biviumRegisters = []register{
	{"Register 1 (s1..s93)", 0, crypto.BiviumReg1Len},
	{"Register 2 (s94..s177)", crypto.BiviumReg1Len, crypto.BiviumReg2Len},
}

// biviumStudy performs the Bivium study of Table 2 and Figure 3: three time
// estimations — a fixed "strategy" set in the spirit of Eibach et al. [5], a
// solver-activity-guided set standing in for the CryptoMiniSat-based
// estimations of Soos et al. [18,19], and the set found by PDSAT-style tabu
// search — with sample sizes in the paper's order 10^2 < 10^3 < 10^5, scaled.
// It returns Table 2, or with figure the diagram of the searched set.
func biviumStudy(ctx context.Context, scale Scale, figure bool) ([]*Table, error) {
	inst, err := biviumInstance(scale, scale.Seed)
	if err != nil {
		return nil, err
	}
	table2 := &Table{
		Title:  "Table 2 — time estimations for the Bivium cryptanalysis problem",
		Header: []string{"Source", "N", "|set|", "Time estimation [" + scale.CostUnit() + "]"},
		Notes: []string{
			fmt.Sprintf("instance %s (%d unknown state bits), scale %q", inst.Name, len(inst.UnknownStartVars()), scale.Name),
			"the paper compares 1.637e13 [5] (N=10^2), 9.718e10 [18,19] (N=10^3) and 3.769e10 (PDSAT, N=10^5) seconds",
		},
	}
	// addRow estimates one set on a session of its own with n samples.
	addRow := func(source string, n int, vars []cnf.Var) (*api.SetEstimate, error) {
		est, estErr := scale.estimateAt(ctx, inst, scale.runnerConfig(n), vars)
		if estErr != nil {
			return nil, estErr
		}
		table2.Rows = append(table2.Rows, []string{source, fmt.Sprintf("%d", n), fmt.Sprintf("%d", len(est.Vars)), fmtF(est.Estimate.Value)})
		return est, nil
	}
	setSize := min(45, len(inst.UnknownStartVars()))
	if _, err = addRow("Fixed strategy (as in [5])", max(scale.EstimateSamples/10, 10), eibachBiviumSet(inst, setSize)); err != nil {
		return nil, err
	}
	actVars, err := activityGuidedSet(ctx, scale, inst, setSize)
	if err != nil {
		return nil, err
	}
	if _, err = addRow("Solver-activity set (as in [18,19])", max(scale.EstimateSamples/2, 20), actVars); err != nil {
		return nil, err
	}
	searchSession, err := scale.session(inst, scale.runnerConfig(scale.SearchSamples))
	if err != nil {
		return nil, err
	}
	tabu, err := search(ctx, searchSession, api.MethodTabu)
	if err != nil {
		return nil, err
	}
	best, err := addRow("Found by PDSAT (tabu search)", scale.EstimateSamples, tabu.BestVars)
	if err != nil {
		return nil, err
	}
	if figure {
		return []*Table{registerFigure("Figure 3 — Bivium decomposition set found by PDSAT (tabu search)", inst, best.Vars, biviumRegisters,
			setSizeNote(inst, best.Vars, scale)+"; the paper's set has 50 variables")}, nil
	}
	return []*Table{table2}, nil
}
