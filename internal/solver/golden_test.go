package solver

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/cnfgen"
)

// The solver golden suite pins the exact search of the CDCL solver — every
// deterministic counter, the model bits and the conflict-activity table of
// every call — to recorded values.  It is what holds the search fixed: the
// paper's cost unit is this solver's effort, and there is no second solver
// to compare it with.  Each value is the pointer-based solver's that the
// flat arena replaced:
//   - the plain scenarios (php_*, rand3sat_seed*, the 50-conflict budget and
//     the two older sessions) were recorded from the pointer solver itself,
//     before the arena existed;
//   - the "oneshot/" scenarios, the 500-conflict and 2000-propagation
//     budgets, php_6_5_reset_session_3_literals and
//     rand3sat_incremental_4_literals were recorded from the arena while a
//     live replay against the pointer solver agreed with it on every call.
//
// A call after Reset records Stats() as its lifetime, so BaseStats() is
// pinned too: it is the lifetime less the call's own stats.  Any drift here
// is a determinism regression, not a tuning change.
//
// Regenerate (only when a deliberate, documented behaviour change is made)
// with:
//
//	PDSAT_UPDATE_GOLDENS=1 go test -run TestSolverGoldens ./internal/solver
const goldenFile = "testdata/solver_goldens.json"

// goldenStats is the pointer solver's deterministic counter set (SolveTime
// is wall clock, and ReduceDBs and ArenaBytes are the arena's own; all are
// excluded, so the file stays the pointer solver's record).
type goldenStats struct {
	Decisions    uint64 `json:"decisions"`
	Propagations uint64 `json:"propagations"`
	Conflicts    uint64 `json:"conflicts"`
	Restarts     uint64 `json:"restarts"`
	Learned      uint64 `json:"learned"`
	Removed      uint64 `json:"removed"`
	MaxLevel     int    `json:"max_level"`
}

func toGoldenStats(s Stats) goldenStats {
	return goldenStats{
		Decisions:    s.Decisions,
		Propagations: s.Propagations,
		Conflicts:    s.Conflicts,
		Restarts:     s.Restarts,
		Learned:      s.Learned,
		Removed:      s.Removed,
		MaxLevel:     s.MaxLevel,
	}
}

// goldenRecord is the recorded outcome of one solve call of a scenario.
type goldenRecord struct {
	Status   string      `json:"status"`
	Stats    goldenStats `json:"stats"`
	Lifetime goldenStats `json:"lifetime"`
	ModelFNV uint64      `json:"model_fnv"`
	ActFNV   uint64      `json:"act_fnv"`
}

func hashModel(m cnf.Assignment) uint64 {
	h := fnv.New64a()
	for _, v := range m {
		h.Write([]byte{byte(v)})
	}
	return h.Sum64()
}

func hashFloats(fs []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, f := range fs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
	return h.Sum64()
}

func record(res Result, s *Solver) goldenRecord {
	return goldenRecord{
		Status:   res.Status.String(),
		Stats:    toGoldenStats(res.Stats),
		Lifetime: toGoldenStats(s.Stats()),
		ModelFNV: hashModel(res.Model),
		ActFNV:   hashFloats(conflictCounts(s)),
	}
}

// conflictCounts reads the solver's conflict counts without taking them, as
// a dense vector indexed by cnf.Var (index 0 unused).
func conflictCounts(s *Solver) []float64 {
	return append([]float64{0}, s.confAct...)
}

// reduceHeavyOptions forces frequent learned-clause database reductions so
// the goldens pin the reduceDB ordering, not just the plain search.
func reduceHeavyOptions() Options {
	o := DefaultOptions()
	o.MaxLearnedFactor = 0.25
	return o
}

// noMinimizeNoPhaseOptions turns off learned-clause minimisation and phase
// saving, fixes the default phase and restarts sooner, so the goldens pin
// the search's other branches too.
func noMinimizeNoPhaseOptions() Options {
	o := DefaultOptions()
	o.MinimizeLearned = false
	o.PhaseSaving = false
	o.DefaultPhase = true
	o.RestartBase = 50
	return o
}

func mustPigeonhole(t *testing.T, pigeons, holes int) *cnf.Formula {
	t.Helper()
	f, err := cnfgen.Pigeonhole(pigeons, holes)
	if err != nil {
		t.Fatalf("Pigeonhole(%d,%d): %v", pigeons, holes, err)
	}
	return f
}

func mustRandom3SAT(t *testing.T, seed int64, vars int, ratio float64) *cnf.Formula {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	f, err := cnfgen.Random3SAT(rng, vars, ratio)
	if err != nil {
		t.Fatalf("Random3SAT(seed=%d): %v", seed, err)
	}
	return f
}

// goldenFormulas are the formulas the one-shot goldens solve under each
// option set: pigeonhole and random 3-SAT instances that take restarts and
// learned clauses, and small hand-made ones for every path of
// construction's normalisation and root-level simplification.
func goldenFormulas(t *testing.T) map[string]*cnf.Formula {
	t.Helper()
	lits := func(ls ...int) cnf.Clause {
		c := make(cnf.Clause, len(ls))
		for i, l := range ls {
			c[i] = cnf.Lit(l)
		}
		return c
	}
	fs := map[string]*cnf.Formula{
		"php_6_5":                mustPigeonhole(t, 6, 5),
		"php_4_4":                mustPigeonhole(t, 4, 4),
		"php_7_6":                mustPigeonhole(t, 7, 6),
		"duplicate literals":     {NumVars: 4, Clauses: []cnf.Clause{lits(3, 1, 3, -2, 1), lits(2, 2), lits(-4, 1, -4, 3)}},
		"tautologies":            {NumVars: 4, Clauses: []cnf.Clause{lits(1, -1), lits(2, 3, -2), lits(1, 2, 3), lits(-3, 4, 3, 9)}},
		"units propagate":        {NumVars: 5, Clauses: []cnf.Clause{lits(-1, 2), lits(-2, 3, 4), lits(1), lits(-3), lits(-4, 5, 1), lits(4, 5, -2)}},
		"root-satisfied literal": {NumVars: 4, Clauses: []cnf.Clause{lits(1), lits(1, 2, 3), lits(2, 3, 4), lits(-2, 1, 7)}},
		"root-falsified literal": {NumVars: 4, Clauses: []cnf.Clause{lits(-1), lits(-2), lits(1, 2, 3, 4), lits(1, 3), lits(2, -3, -4)}},
		"falsified to empty":     {NumVars: 3, Clauses: []cnf.Clause{lits(1, 2), lits(-1), lits(-2), lits(2, 3)}},
		"empty clause":           {NumVars: 3, Clauses: []cnf.Clause{lits(1, 2), lits(), lits(2, 3)}},
		"beyond NumVars":         {NumVars: 2, Clauses: []cnf.Clause{lits(1, 5), lits(-5, 6, 2), lits(7), lits(-7, 9, 1), lits(8, -8)}},
		"no variables declared":  {Clauses: []cnf.Clause{lits(2, 3), lits(-2, 3), lits(1, -3, 2)}},
		"chain":                  chainFormula(40),
	}
	for seed := int64(1); seed <= 4; seed++ {
		fs[fmt.Sprintf("rand3sat_%d", seed)] = mustRandom3SAT(t, seed, 60, 4.2)
	}
	return fs
}

// goldenScenarios returns the named deterministic solve sequences the suite
// pins.  Every scenario returns the records of its calls in order.
func goldenScenarios(t *testing.T) map[string]func() []goldenRecord {
	scenarios := map[string]func() []goldenRecord{}

	solveOnce := func(f *cnf.Formula, opts Options) []goldenRecord {
		s := New(f, opts)
		res := s.Solve()
		return []goldenRecord{record(res, s)}
	}

	scenarios["php_6_5"] = func() []goldenRecord {
		f, _ := cnfgen.Pigeonhole(6, 5)
		return solveOnce(f, DefaultOptions())
	}
	scenarios["php_4_4_sat"] = func() []goldenRecord {
		f, _ := cnfgen.Pigeonhole(4, 4)
		return solveOnce(f, DefaultOptions())
	}
	scenarios["php_8_7"] = func() []goldenRecord {
		f, _ := cnfgen.Pigeonhole(8, 7)
		return solveOnce(f, DefaultOptions())
	}
	scenarios["php_7_6_reduce_heavy"] = func() []goldenRecord {
		f, _ := cnfgen.Pigeonhole(7, 6)
		return solveOnce(f, reduceHeavyOptions())
	}
	scenarios["php_7_6_no_minimize_no_phase"] = func() []goldenRecord {
		f, _ := cnfgen.Pigeonhole(7, 6)
		return solveOnce(f, noMinimizeNoPhaseOptions())
	}
	for name, budget := range map[string]Budget{
		"php_8_7_budget_50_conflicts":      {MaxConflicts: 50},
		"php_8_7_budget_500_conflicts":     {MaxConflicts: 500},
		"php_8_7_budget_2000_propagations": {MaxPropagations: 2000},
	} {
		scenarios[name] = func() []goldenRecord {
			f, _ := cnfgen.Pigeonhole(8, 7)
			s := NewDefault(f)
			s.SetBudget(budget)
			res := s.Solve()
			return []goldenRecord{record(res, s)}
		}
	}
	optVariants := map[string]func() Options{
		"default":              DefaultOptions,
		"reduce_heavy":         reduceHeavyOptions,
		"no_minimize_no_phase": noMinimizeNoPhaseOptions,
	}
	for fname, f := range goldenFormulas(t) {
		for oname, opts := range optVariants {
			scenarios["oneshot/"+fname+"/"+oname] = func() []goldenRecord {
				return solveOnce(f, opts())
			}
		}
	}
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		scenarios[fmt.Sprintf("rand3sat_seed%d", seed)] = func() []goldenRecord {
			rng := rand.New(rand.NewSource(seed))
			f, _ := cnfgen.Random3SAT(rng, 60, 4.2)
			return solveOnce(f, DefaultOptions())
		}
		scenarios[fmt.Sprintf("rand3sat_seed%d_reduce_heavy", seed)] = func() []goldenRecord {
			rng := rand.New(rand.NewSource(seed))
			f, _ := cnfgen.Random3SAT(rng, 80, 4.26)
			return solveOnce(f, reduceHeavyOptions())
		}
	}
	scenarios["php_6_5_reset_assumption_session"] = func() []goldenRecord {
		// One pooled-session solver: Reset between queries, mixed
		// assumption vectors, exactly as the estimation workers drive it.
		f, _ := cnfgen.Pigeonhole(6, 5)
		rng := rand.New(rand.NewSource(11))
		s := NewDefault(f)
		out := make([]goldenRecord, 0, 8)
		for call := 0; call < 8; call++ {
			var assumptions []cnf.Lit
			if call > 0 {
				perm := rng.Perm(f.NumVars)
				for _, v := range perm[:1+rng.Intn(5)] {
					assumptions = append(assumptions, cnf.NewLit(cnf.Var(v+1), rng.Intn(2) == 1))
				}
			}
			s.Reset()
			out = append(out, record(s.SolveWithAssumptions(assumptions), s))
		}
		return out
	}
	scenarios["rand3sat_incremental_no_reset"] = func() []goldenRecord {
		// MiniSat-style incremental reuse: learned clauses and activities
		// carry across calls; pins the learned-clause retention behaviour.
		rng := rand.New(rand.NewSource(5))
		f, _ := cnfgen.Random3SAT(rng, 70, 4.0)
		s := NewDefault(f)
		out := make([]goldenRecord, 0, 4)
		out = append(out, record(s.Solve(), s))
		arng := rand.New(rand.NewSource(17))
		for call := 0; call < 3; call++ {
			var assumptions []cnf.Lit
			perm := arng.Perm(f.NumVars)
			for _, v := range perm[:2+arng.Intn(4)] {
				assumptions = append(assumptions, cnf.NewLit(cnf.Var(v+1), arng.Intn(2) == 1))
			}
			out = append(out, record(s.SolveWithAssumptions(assumptions), s))
		}
		return out
	}
	scenarios["php_6_5_reset_session_3_literals"] = func() []goldenRecord {
		// Reset before every call, then three assumptions of alternating
		// sign on the first variables of a random permutation.
		f, _ := cnfgen.Pigeonhole(6, 5)
		rng := rand.New(rand.NewSource(11))
		s := NewDefault(f)
		out := make([]goldenRecord, 0, 8)
		for call := 0; call < 8; call++ {
			s.Reset()
			perm := rng.Perm(f.NumVars)
			assumptions := make([]cnf.Lit, 0, 3)
			for i := 0; i < 3; i++ {
				assumptions = append(assumptions, cnf.NewLit(cnf.Var(perm[i]+1), i%2 == 0))
			}
			out = append(out, record(s.SolveWithAssumptions(assumptions), s))
		}
		return out
	}
	scenarios["rand3sat_incremental_4_literals"] = func() []goldenRecord {
		// No Reset and no plain solve first: three calls of four
		// assumptions each, learned clauses carried from one to the next.
		rng := rand.New(rand.NewSource(5))
		f, _ := cnfgen.Random3SAT(rng, 70, 4.0)
		s := NewDefault(f)
		arng := rand.New(rand.NewSource(17))
		out := make([]goldenRecord, 0, 3)
		for call := 0; call < 3; call++ {
			perm := arng.Perm(f.NumVars)
			assumptions := make([]cnf.Lit, 0, 4)
			for i := 0; i < 4; i++ {
				assumptions = append(assumptions, cnf.NewLit(cnf.Var(perm[i]+1), i%2 == 1))
			}
			out = append(out, record(s.SolveWithAssumptions(assumptions), s))
		}
		return out
	}
	return scenarios
}

// TestSolverGoldens replays every golden scenario and compares each call
// against its recorded outcome.
func TestSolverGoldens(t *testing.T) {
	if os.Getenv("PDSAT_UPDATE_GOLDENS") == "" {
		replayGoldens(t, func(string) bool { return true })
		return
	}
	scenarios := goldenScenarios(t)
	got := make(map[string][]goldenRecord, len(scenarios))
	for name, run := range scenarios {
		got[name] = run()
	}
	buf, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenFile, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("recorded %d golden scenarios to %s", len(got), goldenFile)
}

// The TestArenaMatchesRefSolver tests replay the inputs of the former
// arena-vs-pointer differential: the scenarios recorded while a live replay
// against the pointer solver agreed with the arena on every call, plus the
// 50-conflict budget, recorded from the pointer solver itself.  Each checks
// that the arena still gives the pointer solver's answers on its inputs.

func TestArenaMatchesRefSolverOneShot(t *testing.T) {
	replayGoldens(t, func(name string) bool { return strings.HasPrefix(name, "oneshot/") })
}

func TestArenaMatchesRefSolverBudgeted(t *testing.T) {
	replayGoldens(t, func(name string) bool { return strings.HasPrefix(name, "php_8_7_budget_") })
}

func TestArenaMatchesRefSolverResetSession(t *testing.T) {
	replayGoldens(t, func(name string) bool { return name == "php_6_5_reset_session_3_literals" })
}

func TestArenaMatchesRefSolverIncremental(t *testing.T) {
	replayGoldens(t, func(name string) bool { return name == "rand3sat_incremental_4_literals" })
}

// replayGoldens replays the golden scenarios whose names keep accepts and
// compares each call against its recorded outcome.  A kept scenario without
// a record, or a kept record without a scenario, is an error, and so is a
// keep that accepts no scenario.
func replayGoldens(t *testing.T, keep func(name string) bool) {
	t.Helper()
	buf, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("missing golden file (record with PDSAT_UPDATE_GOLDENS=1): %v", err)
	}
	var want map[string][]goldenRecord
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	scenarios := goldenScenarios(t)
	for name := range want {
		if _, ok := scenarios[name]; !ok && keep(name) {
			t.Errorf("scenario %q recorded but no longer in the suite", name)
		}
	}
	replayed := 0
	for name, run := range scenarios {
		if !keep(name) {
			continue
		}
		w, ok := want[name]
		if !ok {
			t.Errorf("scenario %q is in the suite but not recorded (stale file?)", name)
			continue
		}
		replayed++
		g := run()
		if len(g) != len(w) {
			t.Errorf("%s: %d calls, recorded %d", name, len(g), len(w))
			continue
		}
		for i := range w {
			if g[i] != w[i] {
				t.Errorf("%s call %d diverges from the recorded search:\n got %+v\nwant %+v", name, i, g[i], w[i])
			}
		}
	}
	if replayed == 0 {
		t.Fatal("no recorded scenario selected")
	}
}
