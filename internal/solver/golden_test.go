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
	"testing"

	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/cnfgen"
)

// The solver golden suite pins the exact search of the CDCL solver — every
// deterministic counter, the model bits and the conflict-activity table — to
// values recorded from the original pointer-based clause representation
// (recorded at the seed of PR 9, before the flat-arena rewrite).  The arena
// representation must reproduce them bit for bit; any drift here is a
// determinism regression, not a tuning change.
//
// Regenerate (only when a deliberate, documented behaviour change is made)
// with:
//
//	PDSAT_UPDATE_GOLDENS=1 go test -run TestSolverGoldens ./internal/solver
const goldenFile = "testdata/solver_goldens.json"

// goldenStats is the seed-era deterministic counter set (SolveTime is wall
// clock, ArenaBytes and the tier counters did not exist at the seed; all are
// excluded on purpose so the file stays comparable with the pointer
// implementation that recorded it).
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
		ActFNV:   hashFloats(s.ConflictActivities()),
	}
}

// reduceHeavyOptions forces frequent learned-clause database reductions so
// the goldens pin the reduceDB ordering, not just the plain search.
func reduceHeavyOptions() Options {
	o := DefaultOptions()
	o.MaxLearnedFactor = 0.25
	return o
}

// goldenScenarios returns the named deterministic solve sequences the suite
// pins.  Every scenario returns the records of its calls in order.
func goldenScenarios() map[string]func() []goldenRecord {
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
		o := DefaultOptions()
		o.MinimizeLearned = false
		o.PhaseSaving = false
		o.DefaultPhase = true
		o.RestartBase = 50
		return solveOnce(f, o)
	}
	scenarios["php_8_7_budget_50_conflicts"] = func() []goldenRecord {
		f, _ := cnfgen.Pigeonhole(8, 7)
		s := NewDefault(f)
		s.SetBudget(Budget{MaxConflicts: 50})
		res := s.Solve()
		return []goldenRecord{record(res, s)}
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
	return scenarios
}

// TestSolverGoldens replays every golden scenario and compares each call
// against the recorded pointer-implementation outcome.
func TestSolverGoldens(t *testing.T) {
	scenarios := goldenScenarios()
	got := make(map[string][]goldenRecord, len(scenarios))
	for name, run := range scenarios {
		got[name] = run()
	}

	if os.Getenv("PDSAT_UPDATE_GOLDENS") != "" {
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
		return
	}

	buf, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("missing golden file (record with PDSAT_UPDATE_GOLDENS=1): %v", err)
	}
	var want map[string][]goldenRecord
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d scenarios, suite has %d (stale file?)", len(want), len(got))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("scenario %q recorded but no longer in the suite", name)
			continue
		}
		if len(g) != len(w) {
			t.Errorf("%s: %d calls, recorded %d", name, len(g), len(w))
			continue
		}
		for i := range w {
			if g[i] != w[i] {
				t.Errorf("%s call %d diverges from the pointer implementation:\n got %+v\nwant %+v", name, i, g[i], w[i])
			}
		}
	}
}
