package expts

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/paper-repro/pdsat-go/internal/crypto"
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
	if maxInt(3, 5) != 5 || maxInt(7, 2) != 7 {
		t.Fatal("maxInt misbehaves")
	}
}

func TestManualA51SetOnFullProblem(t *testing.T) {
	scale := DefaultScale()
	scale.A51Known = 0 // full problem: the manual set must have 31 variables
	inst, err := A51Instance(scale, 1)
	if err != nil {
		t.Fatal(err)
	}
	set := ManualA51Set(inst)
	if len(set) != 31 {
		t.Fatalf("manual S1 on the full problem has %d variables, want 31", len(set))
	}
}

func TestEibachBiviumSet(t *testing.T) {
	scale := DefaultScale()
	scale.BiviumKnown = 0
	inst, err := BiviumInstance(scale, 1)
	if err != nil {
		t.Fatal(err)
	}
	set := EibachBiviumSet(inst, 45)
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
	weakInst, err := BiviumInstance(weakScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	weakSet := EibachBiviumSet(weakInst, 45)
	if len(weakSet) != 45 {
		t.Fatalf("weakened Eibach set has %d variables, want 45", len(weakSet))
	}
}

func TestTable3Problems(t *testing.T) {
	scale := QuickScale()
	probs := Table3Problems(scale)
	if len(probs) != 2*len(scale.Table3Unknowns) {
		t.Fatalf("got %d problems", len(probs))
	}
	for _, p := range probs {
		if p.Known+p.Unknown != 177 && p.Known+p.Unknown != 160 {
			t.Fatalf("inconsistent problem %+v", p)
		}
		if !strings.HasPrefix(p.Name, "Bivium") && !strings.HasPrefix(p.Name, "Grain") {
			t.Fatalf("unexpected problem name %q", p.Name)
		}
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

// TestQuickExperimentsEndToEnd runs the cheapest experiments end to end at
// the quick scale; the expensive ones (full searches, Table 3) are covered
// by the benchmark harness.
func TestQuickExperimentsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping end-to-end experiment smoke test in -short mode")
	}
	scale := QuickScale()
	ctx := context.Background()

	fig1, err := FindExperiment("fig1")
	if err != nil {
		t.Fatal(err)
	}
	tables, err := fig1.Run(ctx, scale)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || !strings.Contains(tables[0].String(), "R1") {
		t.Fatalf("fig1 output unexpected: %v", tables)
	}

	conv, err := RunConvergence(ctx, scale)
	if err != nil {
		t.Fatal(err)
	}
	if conv.Exact <= 0 || len(conv.Points) == 0 {
		t.Fatalf("degenerate convergence result: %+v", conv)
	}
	// The largest-sample estimate should deviate less than (or as much as)
	// the smallest-sample one in the typical case; we only require that all
	// deviations are finite and the rendering works.
	out := conv.TableConvergence().String()
	if !strings.Contains(out, "exact total cost") {
		t.Fatalf("convergence table: %s", out)
	}

	abl, err := RunSolverAblation(ctx, scale)
	if err != nil {
		t.Fatal(err)
	}
	if len(abl.Rows) != 4 {
		t.Fatalf("ablation rows: %d", len(abl.Rows))
	}
	if !strings.Contains(abl.TableAblation().String(), "default") {
		t.Fatal("ablation table rendering")
	}
}

func TestRunA51QuickProducesAllSets(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping in -short mode")
	}
	scale := QuickScale()
	r, err := RunA51(context.Background(), scale)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []SetReport{r.S1, r.S2, r.S3} {
		if s.Power == 0 || s.F <= 0 {
			t.Fatalf("degenerate set report %+v", s)
		}
	}
	t1 := r.Table1().String()
	if !strings.Contains(t1, "S1") || !strings.Contains(t1, "S3") {
		t.Fatalf("table1 rendering:\n%s", t1)
	}
	f1 := r.Figure1().String()
	f2a, f2b := r.Figure2a().String(), r.Figure2b().String()
	if !strings.Contains(f1, "R1") || !strings.Contains(f2a, "annealing") || !strings.Contains(f2b, "tabu") {
		t.Fatal("figure rendering")
	}
	// Each diagram is a table of its own: three register rows, and the note
	// on its own set's size.
	for _, f := range []struct {
		t   *Table
		set SetReport
	}{{r.Figure2a(), r.S2}, {r.Figure2b(), r.S3}} {
		if len(f.t.Rows) != 3 || !strings.Contains(f.t.String(), fmt.Sprintf("|set| = %d of", f.set.Power)) {
			t.Fatalf("figure 2 diagram:\n%s", f.t)
		}
	}
	if r.SAEvaluations == 0 || r.TabuEvaluations == 0 {
		t.Fatal("searches did no work")
	}
}
