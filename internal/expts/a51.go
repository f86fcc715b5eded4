package expts

import (
	"context"
	"fmt"

	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/crypto"
	"github.com/paper-repro/pdsat-go/internal/encoder"
	api "github.com/paper-repro/pdsat-go/pdsat"
)

// A51Result bundles the outcomes of the A5/1 experiments (Table 1 and
// Figures 1, 2a, 2b of the paper): the manually constructed decomposition
// set S1 and the sets S2/S3 found by simulated annealing and tabu search,
// with their predictive-function values.
type A51Result struct {
	// Scale echoes the experiment scale.
	Scale Scale
	// Instance is the (possibly weakened) cryptanalysis instance used.
	Instance *encoder.Instance
	// S1 is the manual set (register cells controlling the clocking), the
	// analogue of the paper's hand-built S1 from [17].
	S1 SetReport
	// S2 is the set found by simulated annealing (Figure 2a).
	S2 SetReport
	// S3 is the set found by tabu search (Figure 2b).
	S3 SetReport
	// SAEvaluations and TabuEvaluations count the predictive-function
	// evaluations spent by each search.
	SAEvaluations   int
	TabuEvaluations int
}

// SetReport describes one decomposition set and its estimate.
type SetReport struct {
	// Name labels the set (S1, S2, S3, ...).
	Name string
	// Vars is the decomposition set.
	Vars []cnf.Var
	// Power is |X̃|.
	Power int
	// F is the predictive-function value (1 CPU core, Scale.CostMetric units).
	F float64
}

// A51Instance builds the scaled A5/1 cryptanalysis instance.
func A51Instance(scale Scale, seed int64) (*encoder.Instance, error) {
	return encoder.NewInstance(encoder.A51(), encoder.Config{
		KeystreamLen: scale.A51Keystream,
		KnownSuffix:  scale.A51Known,
		Seed:         seed,
	})
}

// ManualA51Set returns the analogue of the paper's hand-built S1 set: the
// register cells that control the irregular clocking (cells 0..8 of R1 and
// 0..10 of R2 and R3), restricted to the variables that are unknown at the
// given weakening.  On the full problem this set has exactly 31 variables,
// the size reported in the paper.
func ManualA51Set(inst *encoder.Instance) []cnf.Var {
	unknown := make(map[cnf.Var]bool)
	for _, v := range inst.UnknownStartVars() {
		unknown[v] = true
	}
	var out []cnf.Var
	add := func(v cnf.Var) {
		if unknown[v] {
			out = append(out, v)
		}
	}
	// Start variables are laid out R1[0..18], R2[0..21], R3[0..22] in order.
	for i := 0; i <= 8; i++ { // R1 clocking prefix
		add(inst.StartVars[i])
	}
	for i := 0; i <= 10; i++ { // R2 clocking prefix
		add(inst.StartVars[crypto.A51R1Len+i])
	}
	for i := 0; i <= 10; i++ { // R3 clocking prefix
		add(inst.StartVars[crypto.A51R1Len+crypto.A51R2Len+i])
	}
	return out
}

// a51Manual builds the scaled A5/1 instance and its manual set S1, not yet
// estimated: all Figure 1 needs.
func a51Manual(_ context.Context, scale Scale) (*A51Result, error) {
	inst, err := A51Instance(scale, scale.Seed)
	if err != nil {
		return nil, err
	}
	return &A51Result{Scale: scale, Instance: inst, S1: SetReport{Name: "S1 (manual)", Vars: ManualA51Set(inst)}}, nil
}

// report describes an estimated decomposition set.
func report(name string, est *api.SetEstimate) SetReport {
	return SetReport{Name: name, Vars: est.Vars, Power: len(est.Vars), F: est.Estimate.Value}
}

// RunA51 performs the A5/1 study: estimate the manual set and search for
// sets with both metaheuristics.
func RunA51(ctx context.Context, scale Scale) (*A51Result, error) {
	res, err := a51Manual(ctx, scale)
	if err != nil {
		return nil, err
	}
	// Estimates use the larger sample, the searches the smaller per-point one
	// (a search visits many points).
	estSession, err := scale.session(res.Instance, scale.runnerConfig(scale.EstimateSamples))
	if err != nil {
		return nil, err
	}
	searchSession, err := scale.session(res.Instance, scale.runnerConfig(scale.SearchSamples))
	if err != nil {
		return nil, err
	}
	s1, err := estimate(ctx, estSession, res.S1.Vars)
	if err != nil {
		return nil, err
	}
	res.S1 = report(res.S1.Name, s1)

	sa, err := search(ctx, searchSession, api.MethodSimulatedAnnealing)
	if err != nil {
		return nil, err
	}
	res.SAEvaluations = sa.Evaluations
	s2, err := estimate(ctx, estSession, sa.BestVars)
	if err != nil {
		return nil, err
	}
	res.S2 = report("S2 (simulated annealing)", s2)

	tabu, err := search(ctx, searchSession, api.MethodTabu)
	if err != nil {
		return nil, err
	}
	res.TabuEvaluations = tabu.Evaluations
	s3, err := estimate(ctx, estSession, tabu.BestVars)
	if err != nil {
		return nil, err
	}
	res.S3 = report("S3 (tabu search)", s3)
	return res, nil
}

// Table1 renders the analogue of the paper's Table 1: the three A5/1
// decomposition sets and their predictive-function values.
func (r *A51Result) Table1() *Table {
	t := &Table{
		Title:  "Table 1 — decomposition sets for logical cryptanalysis of A5/1 and values of the predictive function",
		Header: []string{"Set", "Power of set", "F(.) [" + r.Scale.CostUnit() + "]"},
		Notes: []string{
			fmt.Sprintf("instance %s (%d unknown state bits), sample N=%d, scale %q",
				r.Instance.Name, len(r.Instance.UnknownStartVars()), r.Scale.EstimateSamples, r.Scale.Name),
			"the paper reports F in seconds on one core of the Matrosov cluster; here F counts deterministic solver effort",
		},
	}
	for _, s := range []SetReport{r.S1, r.S2, r.S3} {
		t.Rows = append(t.Rows, []string{s.Name, fmt.Sprintf("%d", s.Power), fmtF(s.F)})
	}
	return t
}

// a51Registers is the A5/1 state: R1, R2 and R3 in start-variable order.
var a51Registers = []register{
	{"R1 (19 cells)", 0, crypto.A51R1Len},
	{"R2 (22 cells)", crypto.A51R1Len, crypto.A51R2Len},
	{"R3 (23 cells)", crypto.A51R1Len + crypto.A51R2Len, crypto.A51R3Len},
}

// figure draws one of the study's sets over the three registers.
func (r *A51Result) figure(title string, vars []cnf.Var, notes ...string) *Table {
	return registerFigure(title, r.Instance, vars, a51Registers, append([]string{setSizeNote(r.Instance, vars, r.Scale)}, notes...)...)
}

// Figure1 renders the analogue of Figure 1: the manual decomposition set S1
// laid out over the three registers.
func (r *A51Result) Figure1() *Table {
	return r.figure("Figure 1 — decomposition set S1 (manual, clocking-control cells)", r.S1.Vars)
}

// Figure2a renders the analogue of Figure 2a: the decomposition set found
// by simulated annealing.
func (r *A51Result) Figure2a() *Table {
	return r.figure("Figure 2a — decomposition set S2 found by simulated annealing", r.S2.Vars,
		fmt.Sprintf("simulated annealing evaluated %d points", r.SAEvaluations))
}

// Figure2b renders the analogue of Figure 2b: the decomposition set found
// by tabu search.
func (r *A51Result) Figure2b() *Table {
	return r.figure("Figure 2b — decomposition set S3 found by tabu search", r.S3.Vars,
		fmt.Sprintf("tabu search evaluated %d points", r.TabuEvaluations))
}
