package main

import (
	"math/rand"
	"runtime"
	"time"

	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/decomp"
	"github.com/paper-repro/pdsat-go/internal/montecarlo"
	"github.com/paper-repro/pdsat-go/internal/solver"
)

// probeSolver replays the recorded tasks on one solver in one goroutine —
// the plain single-threaded baseline under the pooled, dispatched solves of
// the traced run: construction time, Reset time, allocations per solve, and
// whether a replayed task costs what the transport reported.
func probeSolver(m map[string]float64, f *cnf.Formula, replay []replayTask) {
	start := time.Now()
	s := solver.New(f, solver.DefaultOptions())
	m["solver.new_ms"] = msSince(start)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var resetTime time.Duration
	mismatches := 0
	for _, task := range replay {
		resetStart := time.Now()
		s.Reset()
		resetTime += time.Since(resetStart)
		s.SetBudget(task.budget)
		s.SolveWithAssumptions(task.assumptions)
		if solver.EffortCost(s.Stats(), task.metric) != task.cost {
			mismatches++
		}
	}
	runtime.ReadMemStats(&after)
	n := float64(len(replay))
	m["solver.reset_us"] = ratio(micros(resetTime), n)
	m["solver.allocs_per_solve"] = ratio(float64(after.Mallocs-before.Mallocs), n)
	m["solver.bytes_per_solve"] = ratio(float64(after.TotalAlloc-before.TotalAlloc), n)
	m["solver.replay_mismatch"] = float64(mismatches)
}

// probeSampling times the two sub-parts of the runner's own work directly:
// drawing one sample of a decomposition family at the workload's d
// (FamilyOf once per evaluation, then RandomAssignment + AssumptionsForBits
// per sample), and turning N costs into an estimate with its eq. 3
// interval.
func probeSampling(m map[string]float64, f *cnf.Formula, p decomp.Point, n int) error {
	const rounds = 20
	rng := rand.New(rand.NewSource(1))
	start := time.Now()
	for r := 0; r < rounds; r++ {
		fam := decomp.FamilyOf(f, p)
		for i := 0; i < n; i++ {
			if _, err := fam.AssumptionsForBits(fam.RandomAssignment(rng)); err != nil {
				return err
			}
		}
	}
	m["decomp.sample_us"] = micros(time.Since(start)) / float64(rounds*n)

	costs := make([]float64, n)
	for i := range costs {
		costs[i] = 1000 + rng.Float64()
	}
	start = time.Now()
	for r := 0; r < rounds; r++ {
		est := montecarlo.NewEstimate(p.Count(), montecarlo.NewSample(costs))
		if _, err := est.ConfidenceInterval(0.95); err != nil {
			return err
		}
	}
	m["montecarlo.estimate_us"] = micros(time.Since(start)) / rounds
	return nil
}
