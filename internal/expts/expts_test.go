package expts

import (
	"context"
	"slices"
	"strings"
	"testing"

	"github.com/paper-repro/pdsat-go/internal/crypto"
	"github.com/paper-repro/pdsat-go/internal/encoder"
	api "github.com/paper-repro/pdsat-go/pdsat"
)

func TestScales(t *testing.T) {
	for _, s := range []Scale{DefaultScale(), QuickScale(), PaperScale()} {
		if s.Name == "" || s.EstimateSamples <= 0 || s.Table3Instances <= 0 {
			t.Fatalf("incomplete scale: %+v", s)
		}
		if s.CostUnit() == "" {
			t.Fatal("empty cost unit")
		}
	}
	if QuickScale().EstimateSamples >= DefaultScale().EstimateSamples {
		t.Fatal("quick scale should be smaller than the default scale")
	}
	if PaperScale().A51Known != 0 || PaperScale().BiviumKnown != 0 {
		t.Fatal("paper scale should use the full (unweakened) problems")
	}
}

func TestRunnerAndSearchConfigDerivation(t *testing.T) {
	s := QuickScale()
	rc := s.runnerConfig(42)
	if rc.SampleSize != 42 || rc.CostMetric != s.CostMetric || rc.Seed != s.Seed {
		t.Fatalf("runnerConfig: %+v", rc)
	}
	so := s.searchOptions()
	if so.MaxEvaluations != s.SearchEvaluations || so.Seed != s.Seed {
		t.Fatalf("searchOptions: %+v", so)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		Title:  "Demo",
		Header: []string{"a", "bbb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"a note"},
	}
	out := tab.String()
	for _, want := range []string{"Demo", "a", "bbb", "333", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestFormatHelpers(t *testing.T) {
	if fmtF(12345.678) != "1.235e+04" {
		t.Fatalf("fmtF = %q", fmtF(12345.678))
	}
	if fmtCost(0) != "0" {
		t.Fatal("fmtCost(0)")
	}
	if !strings.Contains(fmtCost(2e7), "e+07") {
		t.Fatalf("fmtCost(2e7) = %q", fmtCost(2e7))
	}
	if fmtCost(12.3456) != "12.346" {
		t.Fatalf("fmtCost(12.3456) = %q", fmtCost(12.3456))
	}
	if pad("ab", 4) != "ab  " || pad("abcd", 2) != "abcd" {
		t.Fatal("pad misbehaves")
	}
}

func TestManualA51SetOnFullProblem(t *testing.T) {
	scale := DefaultScale()
	scale.A51Known = 0 // full problem: the manual set must have 31 variables
	inst, err := a51Instance(scale, 1)
	if err != nil {
		t.Fatal(err)
	}
	set := manualA51Set(inst)
	if len(set) != 31 {
		t.Fatalf("manual S1 on the full problem has %d variables, want 31", len(set))
	}
}

func TestEibachBiviumSet(t *testing.T) {
	scale := DefaultScale()
	scale.BiviumKnown = 0
	inst, err := biviumInstance(scale, 1)
	if err != nil {
		t.Fatal(err)
	}
	set := eibachBiviumSet(inst, 45)
	if len(set) != 45 {
		t.Fatalf("Eibach set has %d variables, want 45", len(set))
	}
	// All variables must be cells of the second register (s94..s177), i.e.
	// start variables with index >= 93.
	reg2 := map[int]bool{}
	for i := crypto.BiviumReg1Len; i < crypto.BiviumStateBits; i++ {
		reg2[int(inst.StartVars[i])] = true
	}
	for _, v := range set {
		if !reg2[int(v)] {
			t.Fatalf("variable %d of the Eibach set is not in the second register", v)
		}
	}
	// With a heavy weakening the set falls back to first-register cells but
	// keeps its size when possible.
	weakScale := DefaultScale()
	weakScale.BiviumKnown = 120
	weakInst, err := biviumInstance(weakScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	weakSet := eibachBiviumSet(weakInst, 45)
	if len(weakSet) != 45 {
		t.Fatalf("weakened Eibach set has %d variables, want 45", len(weakSet))
	}
}

func TestRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) < 9 {
		t.Fatalf("registry has only %d experiments", len(exps))
	}
	ids := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Paper == "" || e.Description == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate experiment id %q", e.ID)
		}
		ids[e.ID] = true
	}
	for _, want := range []string{"table1", "table2", "table3", "fig1", "fig2", "fig3", "fig4", "mc-convergence", "sa-vs-tabu"} {
		if !ids[want] {
			t.Fatalf("experiment %q missing from the registry", want)
		}
	}
	if _, err := FindExperiment("table1"); err != nil {
		t.Fatal(err)
	}
	if _, err := FindExperiment("nope"); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

// TestPortfolioVsPartitioningFindsTheKey runs the one experiment that
// TestQuickScaleGolden leaves out.  Its winner and the portfolio's effort
// depend on which member answers first, so only the key is checked.
func TestPortfolioVsPartitioningFindsTheKey(t *testing.T) {
	e, err := FindExperiment("portfolio-vs-partitioning")
	if err != nil {
		t.Fatal(err)
	}
	tables, err := e.Run(context.Background(), QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || !slices.ContainsFunc(tables[0].Notes, func(n string) bool {
		return strings.HasSuffix(n, "both approaches recovered a valid key: true")
	}) {
		t.Fatalf("portfolio-vs-partitioning:\n%v", tables)
	}
}

// TestFirstSatCellChecksTheKey: Table 3's first-SAT cell is plain for a
// recovered state that reproduces the keystream and marked for one that does
// not, here the solver's model with one unknown state bit flipped.
func TestFirstSatCellChecksTheKey(t *testing.T) {
	scale := QuickScale()
	inst, err := encoder.NewInstance(encoder.Bivium(), encoder.Config{KeystreamLen: scale.BiviumKeystream, KnownSuffix: 169, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s, err := scale.session(inst, scale.runnerConfig(scale.Table3Samples))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background(), api.SolveJob{Vars: inst.UnknownStartVars(), StopOnSat: true})
	if err != nil {
		t.Fatal(err)
	}
	report := res.Solve
	if !report.FoundSat {
		t.Fatal("the family has no satisfiable subproblem")
	}
	if cell := firstSatCell(report, s.Problem()); strings.Contains(cell, "(") {
		t.Fatalf("valid key marked: %q", cell)
	}
	v := inst.UnknownStartVars()[0]
	report.Model[v] = report.Model[v].Not()
	if cell := firstSatCell(report, s.Problem()); !strings.HasSuffix(cell, " (key invalid)") {
		t.Fatalf("corrupted key not marked: %q", cell)
	}
	report.FoundSat = false
	if cell := firstSatCell(report, s.Problem()); !strings.HasSuffix(cell, " (no SAT)") {
		t.Fatalf("family without SAT not marked: %q", cell)
	}
}
