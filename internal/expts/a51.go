package expts

import (
	"context"
	"fmt"

	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/crypto"
	"github.com/paper-repro/pdsat-go/internal/encoder"
	api "github.com/paper-repro/pdsat-go/pdsat"
)

// a51Instance builds the scaled A5/1 cryptanalysis instance.
func a51Instance(scale Scale, seed int64) (*encoder.Instance, error) {
	return encoder.NewInstance(encoder.A51(), encoder.Config{
		KeystreamLen: scale.A51Keystream,
		KnownSuffix:  scale.A51Known,
		Seed:         seed,
	})
}

// manualA51Set returns the analogue of the paper's hand-built S1 set: the
// register cells that control the irregular clocking (cells 0..8 of R1 and
// 0..10 of R2 and R3), restricted to the variables that are unknown at the
// given weakening.  On the full problem this set has exactly 31 variables,
// the size reported in the paper.
func manualA51Set(inst *encoder.Instance) []cnf.Var {
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

// a51Registers is the A5/1 state: R1, R2 and R3 in start-variable order.
var a51Registers = []register{
	{"R1 (19 cells)", 0, crypto.A51R1Len},
	{"R2 (22 cells)", crypto.A51R1Len, crypto.A51R2Len},
	{"R3 (23 cells)", crypto.A51R1Len + crypto.A51R2Len, crypto.A51R3Len},
}

// figure1 draws the analogue of Figure 1: the manual decomposition set S1
// laid out over the three registers.  It runs no job.
func figure1(_ context.Context, scale Scale) ([]*Table, error) {
	inst, err := a51Instance(scale, scale.Seed)
	if err != nil {
		return nil, err
	}
	s1 := manualA51Set(inst)
	return []*Table{registerFigure("Figure 1 — decomposition set S1 (manual, clocking-control cells)",
		inst, s1, a51Registers, setSizeNote(inst, s1, scale))}, nil
}

// a51Study performs the A5/1 study of Table 1 and Figures 2a/2b: estimate
// the manual set S1, search for sets with simulated annealing (S2) and tabu
// search (S3) and estimate those.  It returns Table 1, or with figures the
// diagrams of S2 and S3.
func a51Study(ctx context.Context, scale Scale, figures bool) ([]*Table, error) {
	inst, err := a51Instance(scale, scale.Seed)
	if err != nil {
		return nil, err
	}
	// Estimates use the larger sample, the searches the smaller per-point one
	// (a search visits many points).
	estSession, err := scale.session(inst, scale.runnerConfig(scale.EstimateSamples))
	if err != nil {
		return nil, err
	}
	searchSession, err := scale.session(inst, scale.runnerConfig(scale.SearchSamples))
	if err != nil {
		return nil, err
	}
	table1 := &Table{
		Title:  "Table 1 — decomposition sets for logical cryptanalysis of A5/1 and values of the predictive function",
		Header: []string{"Set", "Power of set", "F(.) [" + scale.CostUnit() + "]"},
		Notes: []string{
			fmt.Sprintf("instance %s (%d unknown state bits), sample N=%d, scale %q",
				inst.Name, len(inst.UnknownStartVars()), scale.EstimateSamples, scale.Name),
			"the paper reports F in seconds on one core of the Matrosov cluster; here F counts deterministic solver effort",
		},
	}
	addRow := func(set string, est *api.SetEstimate) {
		table1.Rows = append(table1.Rows, []string{set, fmt.Sprintf("%d", len(est.Vars)), fmtF(est.Estimate.Value)})
	}
	s1, err := estimate(ctx, estSession, manualA51Set(inst))
	if err != nil {
		return nil, err
	}
	addRow("S1 (manual)", s1)

	var figure2 []*Table
	for i, method := range []string{api.MethodSimulatedAnnealing, api.MethodTabu} {
		found, err := search(ctx, searchSession, method)
		if err != nil {
			return nil, err
		}
		est, err := estimate(ctx, estSession, found.BestVars)
		if err != nil {
			return nil, err
		}
		set := fmt.Sprintf("S%d", i+2)
		addRow(set+" ("+method+")", est)
		figure2 = append(figure2, registerFigure(fmt.Sprintf("Figure 2%c — decomposition set %s found by %s", 'a'+i, set, method),
			inst, est.Vars, a51Registers, setSizeNote(inst, est.Vars, scale),
			fmt.Sprintf("%s evaluated %d points", method, found.Evaluations)))
	}
	if figures {
		return figure2, nil
	}
	return []*Table{table1}, nil
}
