// Package expts is the experiment harness: a registry with one entry per
// table and figure of the paper's evaluation section, each running its jobs
// and drawing the same rows or series the paper reports from their results,
// on instances scaled down to laptop size.
//
// The scaling substitutions are documented in README.md: the cryptanalysis
// instances are weakened (a suffix of the register state is fixed to its
// true value) so that one predictive-function evaluation takes milliseconds
// to seconds and whole decomposition families remain enumerable, while the
// code path — encoder → Monte Carlo estimator → metaheuristic search →
// leader/worker processing — is exactly the one the paper describes, reached
// the way a user reaches it: jobs run on a pdsat.Session.  The absolute
// numbers therefore differ from the paper's cluster-scale values; the
// reproduced quantities are the relationships (which decomposition set wins,
// where the methods differ).  Table 3's prediction-versus-measurement is run
// but degenerate: the weakened families it can enumerate have members of
// equal cost, so prediction and measurement agree exactly.
package expts

import (
	"context"
	"fmt"
	"io"
	"strings"

	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/encoder"
	api "github.com/paper-repro/pdsat-go/pdsat"
)

// Scale collects the knobs that adapt the paper's experiments to the
// machine at hand.  DefaultScale is sized for a laptop-class CI run;
// PaperScale describes (but does not make feasible) the original settings
// and exists for documentation and for users with a cluster at their
// disposal.
type Scale struct {
	// Name labels the scale in reports.
	Name string

	// A51Known, BiviumKnown, GrainKnown are the number of state bits fixed
	// to their secret values in the scaled instances (0 = the paper's full
	// problem).  The known bits are a suffix of the state, matching the
	// BiviumK/GrainK weakening of the paper.
	A51Known    int
	BiviumKnown int
	GrainKnown  int
	// GrainKnownPrefix additionally fixes that many leading Grain state
	// bits (NFSR cells).  Without it a heavy suffix weakening would remove
	// every LFSR variable from the search space and the Figure 4 question —
	// does the search prefer LFSR variables? — could not be asked.
	GrainKnownPrefix int

	// A51Keystream, BiviumKeystream, GrainKeystream are the observed
	// keystream lengths.
	A51Keystream    int
	BiviumKeystream int
	GrainKeystream  int

	// EstimateSamples is N for plain predictive-function evaluations
	// (the paper used 10^4 for A5/1 and 10^5 for Bivium/Grain).
	EstimateSamples int
	// SearchSamples is N used inside the metaheuristic search, where many
	// points are evaluated.
	SearchSamples int
	// SearchEvaluations bounds the number of points visited by a search.
	SearchEvaluations int
	// Table3Samples is N for the weakened-instance predictions of Table 3.
	Table3Samples int
	// Table3Instances is the number of instances per weakened problem
	// (3 in the paper).
	Table3Instances int
	// Table3Unknowns lists the numbers of unknown state bits of the
	// weakened BiviumK/GrainK-style problems of Table 3 (the paper's
	// Bivium16/14/12 and Grain44/42/40 keep 161..165 and 116..120 unknowns;
	// here the whole decomposition family must stay enumerable, so the
	// unknown counts are small).
	Table3Unknowns []int
	// Workers is the number of computing processes.
	Workers int
	// Cores is the extrapolation target (480 in the paper's Table 3).
	Cores int
	// CostMetric selects the cost unit of the predictive function.
	CostMetric api.CostMetric
	// SubproblemBudget caps the effort of a single sampled subproblem
	// during estimation, as a safety net against pathological samples.
	SubproblemBudget api.Budget
	// Seed drives all pseudo-random choices.
	Seed int64
}

// DefaultScale returns the laptop-scale configuration, the cmd/experiments
// tool's default.
func DefaultScale() Scale {
	return Scale{
		Name:              "laptop",
		A51Known:          34,
		BiviumKnown:       57,
		GrainKnown:        30,
		GrainKnownPrefix:  70,
		A51Keystream:      96,
		BiviumKeystream:   200,
		GrainKeystream:    120,
		EstimateSamples:   200,
		SearchSamples:     30,
		SearchEvaluations: 120,
		Table3Samples:     400,
		Table3Instances:   3,
		Table3Unknowns:    []int{12, 11, 10},
		Workers:           0, // GOMAXPROCS
		Cores:             480,
		CostMetric:        api.CostPropagations,
		SubproblemBudget:  api.Budget{MaxConflicts: 200000},
		Seed:              1,
	}
}

// QuickScale returns a much smaller configuration: the one the recorded
// tables (testdata/quick.txt) and the experiment benchmarks run at.
func QuickScale() Scale {
	s := DefaultScale()
	s.Name = "quick"
	s.A51Known = 46
	s.GrainKnown = 50
	s.GrainKnownPrefix = 75
	s.A51Keystream = 48
	s.GrainKeystream = 80
	s.EstimateSamples = 30
	s.SearchSamples = 10
	s.SearchEvaluations = 45
	s.Table3Samples = 100
	s.Table3Instances = 2
	s.Table3Unknowns = []int{9, 8}
	return s
}

// PaperScale documents the original experiment sizes of the paper.  Running
// it requires cluster-scale resources; it is provided so the mapping between
// the scaled and original settings is explicit and machine-readable.
func PaperScale() Scale {
	return Scale{
		Name:              "paper",
		A51Known:          0,
		BiviumKnown:       0,
		GrainKnown:        0,
		GrainKnownPrefix:  0,
		A51Keystream:      114,
		BiviumKeystream:   200,
		GrainKeystream:    160,
		EstimateSamples:   10000,
		SearchSamples:     10000,
		SearchEvaluations: 0, // 1 day on 64-160 cores
		Table3Samples:     100000,
		Table3Instances:   3,
		Table3Unknowns:    []int{165, 163, 161}, // Bivium12/14/16 in the paper's notation
		Workers:           0,
		Cores:             480,
		CostMetric:        api.CostWallTime,
		Seed:              1,
	}
}

// runnerConfig builds the runner configuration for a given sample size.
func (s Scale) runnerConfig(samples int) api.RunnerConfig {
	return api.RunnerConfig{
		SampleSize:       samples,
		Workers:          s.Workers,
		Seed:             s.Seed,
		CostMetric:       s.CostMetric,
		SubproblemBudget: s.SubproblemBudget,
	}
}

// searchOptions builds optimizer options from the scale (the fields left
// zero are the optimizer's defaults).
func (s Scale) searchOptions() api.SearchOptions {
	return api.SearchOptions{Seed: s.Seed, MaxEvaluations: s.SearchEvaluations}
}

// session opens a session on the instance under the runner configuration and
// the scale's search options: every experiment's one way into the library.
func (s Scale) session(inst *encoder.Instance, rc api.RunnerConfig) (*api.Session, error) {
	return api.NewSession(api.FromInstance(inst), api.Config{Runner: rc, Search: s.searchOptions(), Cores: s.Cores})
}

// estimate runs an EstimateJob on the set; empty means the full start set.
func estimate(ctx context.Context, s *api.Session, vars []cnf.Var) (*api.SetEstimate, error) {
	res, err := s.Run(ctx, api.EstimateJob{Vars: vars})
	if err != nil {
		return nil, err
	}
	return res.Estimate, nil
}

// estimateAt estimates the set on a session of its own under the runner
// configuration: what a study compares across sample sizes shares no
// session, so no estimate inherits another's activity or F-cache.
func (s Scale) estimateAt(ctx context.Context, inst *encoder.Instance, rc api.RunnerConfig, vars []cnf.Var) (*api.SetEstimate, error) {
	sess, err := s.session(inst, rc)
	if err != nil {
		return nil, err
	}
	return estimate(ctx, sess, vars)
}

// search runs a SearchJob with the method from the full start set.
func search(ctx context.Context, s *api.Session, method string) (*api.SearchOutcome, error) {
	res, err := s.Run(ctx, api.SearchJob{Method: method})
	if err != nil {
		return nil, err
	}
	return res.Search, nil
}

// firstVars returns the first d unknown start variables of the instance (all
// of them if it has fewer): a subset small enough to enumerate.
func firstVars(inst *encoder.Instance, d int) []cnf.Var {
	vars := inst.UnknownStartVars()
	return vars[:min(d, len(vars))]
}

// CostUnit returns the human-readable unit of reported costs.
func (s Scale) CostUnit() string { return s.CostMetric.String() }

// Table is a generic named table with a header and rows of strings, used by
// the cmd/experiments tool to render every experiment uniformly.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Write renders the table as aligned text.
func (t *Table) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s\n%s\n", t.Title, strings.Repeat("=", len(t.Title))); err != nil {
		return err
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
		return err
	}
	if err := writeRow(t.Header); err != nil {
		return err
	}
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if err := writeRow(sep); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	_ = t.Write(&sb)
	return sb.String()
}

func pad(s string, width int) string {
	if len(s) >= width {
		return s
	}
	return s + strings.Repeat(" ", width-len(s))
}

// fmtF formats a predictive-function value the way the paper's tables do
// (scientific notation with a few significant digits).
func fmtF(v float64) string { return fmt.Sprintf("%.3e", v) }

// fmtCost formats a float cost with unit-appropriate precision.
func fmtCost(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1e6 || v < 1e-3:
		return fmt.Sprintf("%.3e", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}
