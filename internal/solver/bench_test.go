package solver

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/encoder"
)

// chainFormula builds an implication ladder: binary clauses x_i → x_{i+1}
// and ternary clauses (¬x_i ∨ ¬x_{i+1} ∨ x_{i+2}), so asserting x_1
// propagates the whole chain through both the binary fast path and the
// general watched-literal path.
func chainFormula(n int) *cnf.Formula {
	f := &cnf.Formula{NumVars: n}
	for i := 1; i < n; i++ {
		f.Clauses = append(f.Clauses, cnf.Clause{cnf.NewLit(cnf.Var(i), false), cnf.NewLit(cnf.Var(i+1), true)})
	}
	for i := 1; i+2 <= n; i++ {
		f.Clauses = append(f.Clauses, cnf.Clause{
			cnf.NewLit(cnf.Var(i), false), cnf.NewLit(cnf.Var(i+1), false), cnf.NewLit(cnf.Var(i+2), true),
		})
	}
	return f
}

// sessionBatch encodes a keystream-generator instance and draws n random
// assignments of the last bits of its unknown start variables (all of them
// when bits is 0) — the per-subproblem workload of the Monte Carlo
// estimation: Reset, assume a cell of the decomposition, solve.
func sessionBatch(tb testing.TB, gen encoder.Generator, cfg encoder.Config, bits, n int) (*cnf.Formula, [][]cnf.Lit) {
	tb.Helper()
	inst, err := encoder.NewInstance(gen, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	vars := inst.UnknownStartVars()
	if bits > 0 {
		vars = vars[len(vars)-bits:]
	}
	rng := rand.New(rand.NewSource(7))
	batch := make([][]cnf.Lit, n)
	for i := range batch {
		a := make([]cnf.Lit, 0, len(vars))
		for _, v := range vars {
			a = append(a, cnf.NewLit(v, rng.Intn(2) == 0))
		}
		batch[i] = a
	}
	return inst.CNF, batch
}

// biviumBatch is the weakened Bivium instance of the estimator tests (167
// known start bits, 60 keystream bits) with 256 assignments of its 10
// unknown start variables: propagation-only subproblems.
func biviumBatch(tb testing.TB) (*cnf.Formula, [][]cnf.Lit) {
	return sessionBatch(tb, encoder.Bivium(), encoder.Config{KeystreamLen: 60, KnownSuffix: 167, Seed: 21}, 0, 256)
}

// a51SearchBatch is the instance of the bench's a51-search workload (A5/1,
// 96 keystream bits, 34 known state bits) with 64 assignments of its
// 30-variable decomposition set: short CDCL solves that assign a few
// hundred of 7744 variables, the case the dirty-tracked Reset is for.
func a51SearchBatch(tb testing.TB) (*cnf.Formula, [][]cnf.Lit) {
	return sessionBatch(tb, encoder.A51(), encoder.Config{KeystreamLen: 96, KnownSuffix: 34, Seed: 7}, 0, 64)
}

// biviumEstimateBatch is the instance of the bench's bivium-estimate-tcp
// workload (Bivium, 200 keystream bits, 57 known state bits) with 64
// assignments of all 120 unknown start variables: subproblems decided by a
// few hundred propagations and a conflict or two, on a formula a sample
// touches a tenth of.
func biviumEstimateBatch(tb testing.TB) (*cnf.Formula, [][]cnf.Lit) {
	return sessionBatch(tb, encoder.Bivium(), encoder.Config{KeystreamLen: 200, KnownSuffix: 57, Seed: 7}, 0, 64)
}

// biviumHardBatch is the shape of the bench's bivium-hard workload (Bivium,
// 200 keystream bits, 36 known state bits) with n assignments of the last 4
// of its 141 unknown start variables: subproblems no solve finishes within
// the workload's 24 000-conflict budget, with a learned-clause database that
// grows to the reduceDB bound.
func biviumHardBatch(tb testing.TB, n int) (*cnf.Formula, [][]cnf.Lit) {
	return sessionBatch(tb, encoder.Bivium(), encoder.Config{KeystreamLen: 200, KnownSuffix: 36, Seed: 1007}, 4, n)
}

// solveBytes solves under the assumptions and returns the result and the
// bytes the process allocated meanwhile.
func solveBytes(s *Solver, assumptions []cnf.Lit) (Result, uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := s.SolveWithAssumptions(assumptions)
	runtime.ReadMemStats(&after)
	return res, after.TotalAlloc - before.TotalAlloc
}

// BenchmarkSolverPropagation measures one decide → propagate → backtrack
// round over a 4000-variable implication chain.  The propagation path must
// not allocate: the watch-list rewrites happen in place and the arena is
// never grown outside clause learning (TestPropagateZeroAllocs enforces the
// 0 allocs/op that the ns/op here implies).
func BenchmarkSolverPropagation(b *testing.B) {
	s := NewDefault(chainFormula(4000))
	// Warm up: one full round leaves trail/watch capacity in steady state.
	s.newDecisionLevel()
	s.enqueue(mkLit(0, true), nullRef)
	s.propagate()
	s.cancelUntil(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.newDecisionLevel()
		s.enqueue(mkLit(0, true), nullRef)
		if confl := s.propagate(); confl != nullRef {
			b.Fatal("chain formula cannot conflict")
		}
		s.cancelUntil(0)
	}
	b.ReportMetric(float64(s.stats.Propagations)/float64(b.N), "props/op")
}

// TestPropagateZeroAllocs pins the acceptance bar behind
// BenchmarkSolverPropagation deterministically: steady-state propagation
// performs zero heap allocations per round.
func TestPropagateZeroAllocs(t *testing.T) {
	s := NewDefault(chainFormula(4000))
	round := func() {
		s.newDecisionLevel()
		s.enqueue(mkLit(0, true), nullRef)
		s.propagate()
		s.cancelUntil(0)
	}
	round() // reach steady-state capacities
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("propagation allocated %.1f times per round, want 0", allocs)
	}
}

// resetShapes are the two sampling workloads of the bench whose samples are
// Reset + a short solve + an activity harvest: a51-search (CDCL solves that
// assign a few hundred of 7744 variables) and bivium-estimate-tcp (Bivium,
// 200 keystream bits, 57 known state bits, all 120 unknown start variables
// assumed: a few hundred propagations and a conflict or two).
var resetShapes = []struct {
	name  string
	batch func(testing.TB) (*cnf.Formula, [][]cnf.Lit)
}{
	{"a51-search", a51SearchBatch},
	{"bivium-estimate", biviumEstimateBatch},
}

// TestResetShortSolveZeroAllocs pins the 0 allocs/op of
// BenchmarkSolverResetShortSolve's Reset and solve: once the solver's buffers
// have reached their steady-state capacities, Reset plus a short solve that
// ends UNSAT (a SAT answer allocates its model) does not touch the heap.
func TestResetShortSolveZeroAllocs(t *testing.T) {
	for _, shape := range resetShapes {
		t.Run(shape.name, func(t *testing.T) {
			f, batch := shape.batch(t)
			s := NewDefault(f)
			var unsat [][]cnf.Lit
			for _, a := range batch {
				s.Reset()
				if s.SolveWithAssumptions(a).Status == Unsat {
					unsat = append(unsat, a)
				}
			}
			if len(unsat) == 0 {
				t.Fatal("no UNSAT subproblem in the batch; the test measures nothing")
			}
			round := func() {
				for _, a := range unsat {
					s.Reset()
					s.SolveWithAssumptions(a)
				}
			}
			round() // reach steady-state capacities
			// AllocsPerRun truncates the average, so a run is the whole batch.
			if allocs := testing.AllocsPerRun(10, round); allocs != 0 {
				t.Fatalf("Reset + UNSAT short solve allocated %.0f times per %d solves, want 0", allocs, len(unsat))
			}
		})
	}
}

// BenchmarkSolverBivium measures the Monte Carlo subproblem loop (Reset +
// assume + solve, 256 propagation-only subproblems per op) and reports the
// time of one solve as arena-ns/solve.
func BenchmarkSolverBivium(b *testing.B) {
	f, batch := biviumBatch(b)
	s := NewDefault(f)
	run := func() {
		for _, a := range batch {
			s.Reset()
			s.SolveWithAssumptions(a)
		}
	}
	run() // reach steady-state capacities
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(batch)), "arena-ns/solve")
}

// harvestSink keeps BenchmarkSolverResetShortSolve's harvest from being
// optimised away.
var harvestSink SparseActivities

// BenchmarkSolverResetShortSolve measures what BenchmarkSolverBivium cannot
// (at KnownSuffix 160 its subproblems are propagation-only on a formula
// whose every variable is touched): one sample of the paper's predictive
// function as the workers run it — Reset, a short solve, the conflict
// activity harvest into a buffer of their own — on the two sampling shapes of
// the bench, with the shares of Reset and of the harvest reported
// separately.  Once the buffer has grown the op allocates nothing.
func BenchmarkSolverResetShortSolve(b *testing.B) {
	for _, shape := range resetShapes {
		b.Run(shape.name, func(b *testing.B) {
			f, batch := shape.batch(b)
			s := NewDefault(f)
			for _, a := range batch { // reach steady-state capacities
				s.Reset()
				s.SolveWithAssumptions(a)
			}
			var inReset, inHarvest time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				s.Reset()
				inReset += time.Since(start)
				s.SolveWithAssumptions(batch[i%len(batch)])
				start = time.Now()
				harvestSink = s.AppendConflictActivities(harvestSink.Emptied())
				inHarvest += time.Since(start)
			}
			b.ReportMetric(float64(inReset.Nanoseconds())/float64(b.N), "reset-ns/op")
			b.ReportMetric(float64(inHarvest.Nanoseconds())/float64(b.N), "harvest-ns/op")
		})
	}
}

// newSink keeps BenchmarkSolverNew's solver from being optimised away.
var newSink *Solver

// BenchmarkSolverNew measures what every worker slot pays before its first
// sample: New plus the capture of the pristine snapshot, on the formulas of
// the two sampling shapes.  Its allocs/op is the number to watch — New sizes
// the solver from one counting pass, so it does not follow the clause count
// (TestNewAllocsIndependentOfClauses pins that).
func BenchmarkSolverNew(b *testing.B) {
	for _, shape := range resetShapes {
		b.Run(shape.name, func(b *testing.B) {
			f, _ := shape.batch(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				newSink = NewDefault(f)
			}
		})
	}
}

// BenchmarkSolverLongSolve runs CDCL search where the other Bivium benchmarks
// only propagate (at KnownSuffix 160/167 every subproblem is decided by unit
// propagation): the shape of the bench's bivium-hard workload, with a
// learned-clause database that grows to thousands of clauses.
//
// warm solves two cells of the 4-variable decomposition set on one
// goroutine until a 4000-conflict budget stops each, Reset in between, on a
// solver that has run them once before the timer starts.  It is the
// benchmark for changes to the propagation kernel and reports its rates; the
// effort counters of one op are pinned to the values recorded at PR 13, so
// that it fails instead of silently timing a different search.
//
// cold is what warm never sees, because its solver grew before the timer
// started: a fresh solver per op (New outside the timed region) solves one
// cell to the workload's 24 000-conflict budget, as each of bivium-hard's
// solvers does, and grows its learned region to the reduceDB bound on the
// way.  It reports the bytes the solve allocates (solve-B/op), and its
// effort is pinned to TestLongSolveGrowsTheLearnedRegionOnce's.
func BenchmarkSolverLongSolve(b *testing.B) {
	b.Run("warm", func(b *testing.B) {
		want := Stats{Propagations: 1554823, Conflicts: 8000, Decisions: 9697}
		f, batch := biviumHardBatch(b, 2)
		s := NewDefault(f)
		s.SetBudget(Budget{MaxConflicts: 4000})
		run := func() (sum Stats) {
			for _, a := range batch {
				s.Reset()
				sum = sum.Add(s.SolveWithAssumptions(a).Stats)
			}
			return sum
		}
		run() // reach steady-state capacities
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			got := run()
			if got.Propagations != want.Propagations || got.Conflicts != want.Conflicts || got.Decisions != want.Decisions {
				b.Fatalf("one op performed %d propagations, %d conflicts, %d decisions; recorded: %d, %d, %d — the search changed",
					got.Propagations, got.Conflicts, got.Decisions, want.Propagations, want.Conflicts, want.Decisions)
			}
		}
		secs := b.Elapsed().Seconds()
		b.ReportMetric(float64(want.Propagations)*float64(b.N)/secs, "props/s")
		b.ReportMetric(float64(want.Conflicts)*float64(b.N)/secs, "conflicts/s")
	})
	b.Run("cold", func(b *testing.B) {
		f, batch := biviumHardBatch(b, 1)
		var bytes uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := NewDefault(f)
			s.SetBudget(Budget{MaxConflicts: coldHardSolve.Conflicts})
			b.StartTimer()
			res, n := solveBytes(s, batch[0])
			bytes += n
			if d := coldHardSolveDiff(res); d != "" {
				b.Fatal(d)
			}
		}
		b.ReportMetric(float64(bytes)/float64(b.N), "solve-B/op")
	})
}
