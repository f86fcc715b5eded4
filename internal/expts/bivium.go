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

// BiviumResult bundles the Bivium experiments: the three time estimations of
// Table 2 (a fixed "strategy" set in the spirit of Eibach et al. [5], a
// solver-activity-guided set standing in for the CryptoMiniSat-based
// estimations of Soos et al. [18,19], and the set found by PDSAT-style tabu
// search), plus the decomposition set of Figure 3.
type BiviumResult struct {
	Scale    Scale
	Instance *encoder.Instance
	// Fixed is the Eibach-style fixed strategy: the last cells of the
	// second shift register, estimated with a small sample (N=10^2 in [5]).
	Fixed SetReport
	// FixedSamples is the sample size used for Fixed.
	FixedSamples int
	// ActivityGuided is the stand-in for [18,19]: the decomposition set
	// formed by the most conflict-active variables, estimated with a medium
	// sample (N=10^3 in those papers).
	ActivityGuided SetReport
	// ActivitySamples is the sample size used for ActivityGuided.
	ActivitySamples int
	// Searched is the set found by tabu search and estimated with the
	// largest sample (N=10^5 in the paper).
	Searched SetReport
	// SearchedSamples is the sample size used for Searched.
	SearchedSamples int
	// TabuEvaluations counts the points visited by the search.
	TabuEvaluations int
}

// BiviumInstance builds the scaled Bivium cryptanalysis instance.
func BiviumInstance(scale Scale, seed int64) (*encoder.Instance, error) {
	return encoder.NewInstance(encoder.Bivium(), encoder.Config{
		KeystreamLen: scale.BiviumKeystream,
		KnownSuffix:  scale.BiviumKnown,
		Seed:         seed,
	})
}

// EibachBiviumSet returns the fixed decomposition set used as the best
// strategy in [5]: the last `size` cells of the second shift register,
// restricted to unknown variables.  In the paper size is 45.
func EibachBiviumSet(inst *encoder.Instance, size int) []cnf.Var {
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

// ActivityGuidedSet returns the `size` unknown start variables with the
// largest accumulated conflict activity according to the provided ranking
// runner.  It stands in for the CryptoMiniSat-internal variable choices of
// [18,19]: variables the solver fights over the most.
func ActivityGuidedSet(ctx context.Context, scale Scale, inst *encoder.Instance, size int) ([]cnf.Var, error) {
	s, err := scale.session(inst, scale.runnerConfig(scale.SearchSamples))
	if err != nil {
		return nil, err
	}
	// One evaluation of the full start set accumulates conflict activity
	// over the sampled subproblems.
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
	if size > len(unknown) {
		size = len(unknown)
	}
	out := append([]cnf.Var(nil), unknown[:size]...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// RunBivium performs the Bivium estimation study (Table 2, Figure 3).
func RunBivium(ctx context.Context, scale Scale) (*BiviumResult, error) {
	inst, err := BiviumInstance(scale, scale.Seed)
	if err != nil {
		return nil, err
	}
	res := &BiviumResult{Scale: scale, Instance: inst}

	// Sample sizes keep the paper's ordering 10^2 < 10^3 < 10^5, scaled.
	res.FixedSamples = maxInt(scale.EstimateSamples/10, 10)
	res.ActivitySamples = maxInt(scale.EstimateSamples/2, 20)
	res.SearchedSamples = scale.EstimateSamples

	setSize := 45
	if unknown := len(inst.UnknownStartVars()); setSize > unknown {
		setSize = unknown
	}
	// estimateOnce estimates one set on a session of its own with n samples.
	estimateOnce := func(vars []cnf.Var, n int) (*api.SetEstimate, error) {
		s, serr := scale.session(inst, scale.runnerConfig(n))
		if serr != nil {
			return nil, serr
		}
		return estimate(ctx, s, vars)
	}

	// Row 1: Eibach-style fixed strategy, small sample.
	fixed, err := estimateOnce(EibachBiviumSet(inst, setSize), res.FixedSamples)
	if err != nil {
		return nil, err
	}
	res.Fixed = report("Fixed strategy (as in [5])", fixed)

	// Row 2: activity-guided set, medium sample.
	actVars, err := ActivityGuidedSet(ctx, scale, inst, setSize)
	if err != nil {
		return nil, err
	}
	act, err := estimateOnce(actVars, res.ActivitySamples)
	if err != nil {
		return nil, err
	}
	res.ActivityGuided = report("Solver-activity set (as in [18,19])", act)

	// Row 3: PDSAT-style tabu search from the start set, large sample.
	searchSession, err := scale.session(inst, scale.runnerConfig(scale.SearchSamples))
	if err != nil {
		return nil, err
	}
	tabu, err := search(ctx, searchSession, api.MethodTabu)
	if err != nil {
		return nil, err
	}
	res.TabuEvaluations = tabu.Evaluations
	best, err := estimateOnce(tabu.BestVars, res.SearchedSamples)
	if err != nil {
		return nil, err
	}
	res.Searched = report("Found by PDSAT (tabu search)", best)
	return res, nil
}

// Table2 renders the analogue of the paper's Table 2: three time estimations
// for the Bivium cryptanalysis problem obtained with different methods and
// sample sizes.
func (r *BiviumResult) Table2() *Table {
	t := &Table{
		Title:  "Table 2 — time estimations for the Bivium cryptanalysis problem",
		Header: []string{"Source", "N", "|set|", "Time estimation [" + r.Scale.CostUnit() + "]"},
		Notes: []string{
			fmt.Sprintf("instance %s (%d unknown state bits), scale %q", r.Instance.Name, len(r.Instance.UnknownStartVars()), r.Scale.Name),
			"the paper compares 1.637e13 [5] (N=10^2), 9.718e10 [18,19] (N=10^3) and 3.769e10 (PDSAT, N=10^5) seconds",
		},
	}
	t.Rows = append(t.Rows,
		[]string{r.Fixed.Name, fmt.Sprintf("%d", r.FixedSamples), fmt.Sprintf("%d", r.Fixed.Power), fmtF(r.Fixed.F)},
		[]string{r.ActivityGuided.Name, fmt.Sprintf("%d", r.ActivitySamples), fmt.Sprintf("%d", r.ActivityGuided.Power), fmtF(r.ActivityGuided.F)},
		[]string{r.Searched.Name, fmt.Sprintf("%d", r.SearchedSamples), fmt.Sprintf("%d", r.Searched.Power), fmtF(r.Searched.F)},
	)
	return t
}

// biviumRegisters is the Bivium state: its two registers in start-variable
// order.
var biviumRegisters = []register{
	{"Register 1 (s1..s93)", 0, crypto.BiviumReg1Len},
	{"Register 2 (s94..s177)", crypto.BiviumReg1Len, crypto.BiviumReg2Len},
}

// Figure3 renders the analogue of Figure 3: the decomposition set found by
// the search laid out over the two Bivium registers.
func (r *BiviumResult) Figure3() *Table {
	return registerFigure("Figure 3 — Bivium decomposition set found by PDSAT (tabu search)", r.Instance, r.Searched.Vars, biviumRegisters,
		setSizeNote(r.Instance, r.Searched.Vars, r.Scale)+"; the paper's set has 50 variables")
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
