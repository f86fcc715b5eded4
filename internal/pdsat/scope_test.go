package pdsat

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"github.com/paper-repro/pdsat-go/internal/cluster"
	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/decomp"
	"github.com/paper-repro/pdsat-go/internal/encoder"
	"github.com/paper-repro/pdsat-go/internal/eval"
	"github.com/paper-repro/pdsat-go/internal/solver"
)

// scopeTestInstance builds a weakened A5/1 instance for scope tests.
func scopeTestInstance(t testing.TB) *encoder.Instance {
	t.Helper()
	inst, err := encoder.NewInstance(encoder.A51(), encoder.Config{
		KeystreamLen: 40,
		KnownSuffix:  46,
		Seed:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// estimatesEqual compares two point estimates bit for bit: F, every raw
// sample cost and the satisfiable count.
func estimatesEqual(a, b *eval.Evaluation) bool {
	if a.Estimate.Value != b.Estimate.Value || a.SatisfiableSamples != b.SatisfiableSamples {
		return false
	}
	av, bv := a.Sample.Values(), b.Sample.Values()
	if len(av) != len(bv) {
		return false
	}
	for i := range av {
		if av[i] != bv[i] {
			return false
		}
	}
	return true
}

// TestScopeBitIdenticalToFreshRunner pins the scope isolation guarantee: a
// scope with seed S on a busy runner evaluates exactly like a fresh runner
// configured with Seed S, even though the runner's default scope has already
// advanced its own evaluation counter.
func TestScopeBitIdenticalToFreshRunner(t *testing.T) {
	inst := scopeTestInstance(t)
	cfg := Config{SampleSize: 12, Workers: 2, Seed: 3, CostMetric: solver.CostPropagations}
	r := NewRunner(inst.CNF, cfg)
	space := decomp.NewSpace(inst.UnknownStartVars())
	p := space.FullPoint()

	// Advance the default scope so a shared counter would diverge.
	for i := 0; i < 3; i++ {
		if _, err := r.EvaluatePoint(context.Background(), p); err != nil {
			t.Fatal(err)
		}
	}

	scopeSeed := int64(91)
	sc := r.NewScope(scopeSeed)
	fresh := NewRunner(inst.CNF, Config{SampleSize: 12, Workers: 2, Seed: scopeSeed, CostMetric: solver.CostPropagations})

	q := p.Flip(0)
	for i, point := range []decomp.Point{p, q, p.Flip(1)} {
		got, err := sc.EvaluatePoint(context.Background(), point)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.EvaluatePoint(context.Background(), point)
		if err != nil {
			t.Fatal(err)
		}
		if !estimatesEqual(got, want) {
			t.Fatalf("evaluation %d: scope F=%v differs from fresh runner F=%v",
				i, got.Estimate.Value, want.Estimate.Value)
		}
	}

	// The scope's local activity matches the fresh runner's global activity.
	for _, v := range inst.UnknownStartVars() {
		if sc.VarActivity(v) != fresh.VarActivity(v) {
			t.Fatalf("scope activity of %d differs from fresh runner", v)
		}
	}
	if sc.Evaluations() != 3 || fresh.Evaluations() != 3 {
		t.Fatalf("scope counted %d evaluations, fresh runner %d, want 3", sc.Evaluations(), fresh.Evaluations())
	}
}

// TestConcurrentScopesDeterministic runs several scopes concurrently against
// one runner (one transport, one solver pool) and checks each scope's
// results are bit-identical to running it alone: interleaving on the shared
// transport must never leak into a scope's sampling.
func TestConcurrentScopesDeterministic(t *testing.T) {
	inst := scopeTestInstance(t)
	cfg := Config{SampleSize: 10, Workers: 4, Seed: 1, CostMetric: solver.CostPropagations}
	space := decomp.NewSpace(inst.UnknownStartVars())
	points := []decomp.Point{space.FullPoint(), space.FullPoint().Flip(0), space.FullPoint().Flip(2)}

	const scopes = 4
	// Solo reference: each scope's sequence run on its own runner.
	want := make([][]*eval.Evaluation, scopes)
	for i := 0; i < scopes; i++ {
		solo := NewRunner(inst.CNF, Config{SampleSize: 10, Workers: 4, Seed: int64(100 + i), CostMetric: solver.CostPropagations})
		for _, p := range points {
			pe, err := solo.EvaluatePoint(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = append(want[i], pe)
		}
	}

	r := NewRunner(inst.CNF, cfg)
	got := make([][]*eval.Evaluation, scopes)
	var wg sync.WaitGroup
	errs := make([]error, scopes)
	for i := 0; i < scopes; i++ {
		sc := r.NewScope(int64(100 + i))
		wg.Add(1)
		go func(i int, sc *Scope) {
			defer wg.Done()
			for _, p := range points {
				pe, err := sc.EvaluatePoint(context.Background(), p)
				if err != nil {
					errs[i] = err
					return
				}
				got[i] = append(got[i], pe)
			}
		}(i, sc)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("scope %d: %v", i, err)
		}
	}
	for i := range got {
		for k := range got[i] {
			if !estimatesEqual(got[i][k], want[i][k]) {
				t.Fatalf("scope %d evaluation %d differs under concurrency: F=%v want %v",
					i, k, got[i][k].Estimate.Value, want[i][k].Estimate.Value)
			}
		}
	}

	// Global roll-up covers every scope's work.
	totalEvals := scopes * len(points)
	if r.Evaluations() != totalEvals {
		t.Fatalf("runner rolled up %d evaluations, want %d", r.Evaluations(), totalEvals)
	}
	solved := 0
	for i := 0; i < scopes; i++ {
		solved += 10 * len(points)
	}
	if r.SubproblemsSolved() != solved {
		t.Fatalf("runner rolled up %d solved subproblems, want %d", r.SubproblemsSolved(), solved)
	}
}

// TestScopePruningCounters checks that an incumbent-pruned scope evaluation
// counts in both the scope and the runner roll-up, and is valued at exactly
// its incumbent, below the F of its whole sample.
func TestScopePruningCounters(t *testing.T) {
	inst := scopeTestInstance(t)
	r := NewRunner(inst.CNF, Config{SampleSize: 16, Workers: 2, Seed: 3, CostMetric: solver.CostPropagations})
	space := decomp.NewSpace(inst.UnknownStartVars())
	p := space.FullPoint()
	sc := r.NewScope(17)

	// An absurdly low incumbent forces the prune on the first stage.
	pe, err := sc.EvaluatePointBudgeted(context.Background(), p, eval.Policy{Prune: true, Stages: 2}, 1e-9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !pe.Pruned {
		t.Fatal("evaluation with an epsilon incumbent was not pruned")
	}
	if pe.Value != 1e-9 {
		t.Fatalf("pruned against 1e-9 with value %v", pe.Value)
	}
	if sc.PrunedEvaluations() != 1 || r.PrunedEvaluations() != 1 {
		t.Fatalf("pruned counters scope=%d runner=%d, want 1/1", sc.PrunedEvaluations(), r.PrunedEvaluations())
	}
	if sc.SubproblemsAborted() == 0 || r.SubproblemsAborted() != sc.SubproblemsAborted() {
		t.Fatalf("aborted counters scope=%d runner=%d disagree", sc.SubproblemsAborted(), r.SubproblemsAborted())
	}
	// A fresh scope of the same seed draws the same sample into slot 0.
	whole, err := r.NewScope(17).EvaluatePoint(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !(whole.Value > 1e-9) {
		t.Fatalf("the whole sample gives F = %v, not above the incumbent", whole.Value)
	}
}

// TestRunnerIsItsDefaultScope: the evaluation methods are declared on Scope
// and reach a Runner by promotion, through the scope it embeds.  An evaluation
// called on the runner draws the slot r.Scope.Evaluations() names, counts in
// r.Scope and rolls up into the runner's own ledger; a second scope counts in
// the runner's ledger and not in r.Scope's; and the getters a Runner answers
// itself — Counters, VarActivity — read the roll-up, which is what a plain
// search job's tabu search consumes as its activity source.
func TestRunnerIsItsDefaultScope(t *testing.T) {
	inst := scopeTestInstance(t)
	cfg := Config{SampleSize: 12, Workers: 2, Seed: 3, CostMetric: solver.CostPropagations}
	r := NewRunner(inst.CNF, cfg)
	p := decomp.NewSpace(inst.UnknownStartVars()).FullPoint()
	ctx := context.Background()

	fresh := NewRunner(inst.CNF, cfg)
	for _, q := range []decomp.Point{p, p.Flip(0), p.Flip(1)} {
		slot := r.Scope.Evaluations()
		got, err := r.EvaluatePoint(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.EvaluateSlotObserved(ctx, q, cfg.Policy, math.Inf(1), slot, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !estimatesEqual(got, want) {
			t.Fatalf("r.EvaluatePoint with %d evaluations behind it is not the default scope's slot %d: F %v, want %v",
				slot, slot, got.Estimate.Value, want.Estimate.Value)
		}
	}
	if first := r.ReserveEvalSlots(2); first != 3 || r.Scope.Evaluations() != 5 {
		t.Fatalf("r.ReserveEvalSlots(2) returned %d and left the default scope at %d evaluations, want 3 and 5", first, r.Scope.Evaluations())
	}
	if _, err := r.EvaluateSlotObserved(ctx, p, cfg.Policy, math.Inf(1), 4, nil); err != nil {
		t.Fatal(err)
	}
	own := r.Scope.Counters()
	if own.SubproblemsSolved != 4*12 || own != r.Counters() {
		t.Fatalf("four evaluations on the runner:\n r.Scope %+v\n r       %+v\nwant 48 solved subproblems in both", own, r.Counters())
	}

	second := r.NewScope(9)
	if _, err := second.EvaluatePoint(ctx, p.Flip(2)); err != nil {
		t.Fatal(err)
	}
	if got := r.Scope.Counters(); got != own {
		t.Fatalf("another scope's evaluation moved the default scope's table:\n got %+v\nwant %+v", got, own)
	}
	if got, want := r.Counters().SubproblemsSolved, own.SubproblemsSolved+second.SubproblemsSolved(); got != want || r.Evaluations() != 6 {
		t.Fatalf("the runner counts %d solved subproblems in %d evaluations, want both scopes' %d in 6", got, r.Evaluations(), want)
	}
	wider := false
	for v := cnf.Var(1); int(v) <= inst.CNF.NumVars; v++ {
		sum := r.Scope.VarActivity(v) + second.VarActivity(v)
		if got := r.VarActivity(v); got != sum {
			t.Fatalf("r.VarActivity(%d) = %v, want the runner-wide %v", v, got, sum)
		}
		wider = wider || second.VarActivity(v) != 0
	}
	if !wider {
		t.Fatal("the second scope absorbed no conflict activity: the comparison above shows nothing")
	}
}

// TestLedgerRollUp: three scopes and the default scope evaluate at once —
// full samples, staged ones and pruned ones — while a Solve enumerates a
// family on the same runner.  At quiescence the runner's table is, field by
// field, the sum of the four scopes' and of what the solve's own results
// amount to; so is the activity of every variable; and each scope's sample
// ledger balances on its own, the solve being in none of them.
func TestLedgerRollUp(t *testing.T) {
	inst := scopeTestInstance(t)
	r := NewRunner(inst.CNF, Config{SampleSize: 16, Workers: 2, Seed: 3, CostMetric: solver.CostPropagations})
	space := decomp.NewSpace(inst.UnknownStartVars())
	p := space.FullPoint()
	family, err := space.PointFromVars(space.Vars()[:6])
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// The default scope evaluates through the runner's own methods, as a
	// session's estimate job does.
	type evaluator interface {
		EvaluatePointBudgeted(context.Context, decomp.Point, eval.Policy, float64, func(Progress)) (*eval.Evaluation, error)
	}
	scopes := []*Scope{r.Scope, r.NewScope(11), r.NewScope(12), r.NewScope(13)}
	var wg sync.WaitGroup
	errs := make([]error, len(scopes)+1)
	for i, sc := range scopes {
		var ev evaluator = sc
		if sc == r.Scope {
			ev = r
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			full, err := ev.EvaluatePointBudgeted(ctx, p, eval.Policy{}, math.Inf(1), nil)
			if err != nil {
				errs[i] = err
				return
			}
			staged := eval.Policy{Prune: true, Stages: 3}
			for k, incumbent := range []float64{math.Inf(1), full.Estimate.Value / 2, 1e-9} {
				if _, err := ev.EvaluatePointBudgeted(ctx, p.Flip(i+k), staged, incumbent, nil); err != nil {
					errs[i] = err
					return
				}
			}
		}()
	}
	// The solve's share, from the results themselves — their activity while
	// the observer runs, which is as long as it is lent.
	var solve Counters
	solveAct := make([]float64, inst.CNF.NumVars+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, errs[len(scopes)] = r.SolveObserved(ctx, family, SolveOptions{}, func(pr Progress) {
			absorbResult(&pr.Result, &solve)
			for i, v := range pr.Result.Activity.Vars {
				solveAct[v] += pr.Result.Activity.Acts[i]
			}
		})
	}()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if solve.SubproblemsSolved != 1<<6 {
		t.Fatalf("the solve reported %d solved subproblems, want %d", solve.SubproblemsSolved, 1<<6)
	}

	want := reflect.ValueOf(&solve).Elem() // the solve's share, then every scope's on top
	for i, sc := range scopes {
		c := sc.Counters()
		if c.SamplesPlanned != 4*16 || c.SamplesPlanned != c.SubproblemsSolved+c.SubproblemsAborted+c.SamplesSkipped {
			t.Errorf("scope %d: ledger out of balance or short of 4 evaluations x 16: %+v", i, c)
		}
		if c.PrunedEvaluations == 0 || c.SubproblemsAborted+c.SamplesSkipped == 0 {
			t.Errorf("scope %d: an incumbent of 1e-9 pruned nothing: %+v", i, c)
		}
		got := reflect.ValueOf(c)
		for f := 0; f < got.NumField(); f++ {
			if got.Field(f).Kind() == reflect.Int {
				want.Field(f).SetInt(want.Field(f).Int() + got.Field(f).Int())
			}
		}
		solve.Solver = solve.Solver.Add(c.Solver)
	}
	if got := r.Counters(); got != solve {
		t.Errorf("the runner's table is not the sum of its scopes' and the solve's:\n got %+v\nwant %+v", got, solve)
	}
	for v := cnf.Var(1); int(v) <= inst.CNF.NumVars; v++ {
		sum := solveAct[v]
		for _, sc := range scopes {
			sum += sc.VarActivity(v)
		}
		if got := r.VarActivity(v); got != sum {
			t.Fatalf("activity of variable %d: runner %v, scopes and solve %v", v, got, sum)
		}
	}
}

// recordingTransport is the in-process transport recording every batch as a
// Borrower may: it clones the assumption vectors on entry, checks when the
// batch is done that nobody wrote them while it ran, and keeps the clones and
// the addresses of the literal array and of the results array, never the
// caller's vectors.
type recordingTransport struct {
	*cluster.Inproc
	t       *testing.T
	batches [][][]cnf.Lit
	arrays  []*cnf.Lit
	results []*cluster.TaskResult
}

// RunDispatch is the Runner's one batch call; without it the one promoted
// from Inproc would bypass the recording.
func (r *recordingTransport) RunDispatch(ctx context.Context, tasks []cluster.Task, opts cluster.BatchOptions, observe func(cluster.TaskResult), abort <-chan struct{}) ([]cluster.TaskResult, cluster.DispatchStats, error) {
	results, err := r.RunAbortable(ctx, tasks, opts, observe, abort)
	return results, cluster.DispatchStats{}, err
}

func (r *recordingTransport) RunObserved(ctx context.Context, tasks []cluster.Task, opts cluster.BatchOptions, observe func(cluster.TaskResult)) ([]cluster.TaskResult, error) {
	return r.RunAbortable(ctx, tasks, opts, observe, nil)
}

func (r *recordingTransport) RunAbortable(ctx context.Context, tasks []cluster.Task, opts cluster.BatchOptions, observe func(cluster.TaskResult), abort <-chan struct{}) ([]cluster.TaskResult, error) {
	vectors := make([][]cnf.Lit, len(tasks))
	for i, task := range tasks {
		if task.Index != i {
			r.t.Fatalf("task %d has the index %d", i, task.Index)
		}
		if len(task.Assumptions) == 0 || cap(task.Assumptions) != len(task.Assumptions) {
			r.t.Fatalf("task %d has %d assumptions of capacity %d, want a capped vector", i, len(task.Assumptions), cap(task.Assumptions))
		}
		vectors[i] = slices.Clone(task.Assumptions)
	}
	results, err := r.Inproc.RunAbortable(ctx, tasks, opts, observe, abort)
	for i, task := range tasks {
		if !slices.Equal(task.Assumptions, vectors[i]) {
			r.t.Fatalf("task %d was written during its batch: %v, it was %v", i, task.Assumptions, vectors[i])
		}
	}
	r.batches = append(r.batches, vectors)
	r.arrays = append(r.arrays, &tasks[0].Assumptions[0])
	r.results = append(r.results, &results[0])
	return results, err
}

// TestEvaluationLeavesItsTasksToTheCaller pins the ownership rule an
// evaluation relies on when it draws into the arrays of the one before: a
// transport that borrows the tasks finds them unchanged until its call
// returns, each vector capped at its length, so that appending to one cannot
// reach the next although they share one array; the second evaluation, on a
// smaller set, is drawn into the first one's array, and its vectors are those
// of a cold draw of its slot.  Its results come back in the first one's
// results array.
func TestEvaluationLeavesItsTasksToTheCaller(t *testing.T) {
	inst := scopeTestInstance(t)
	tr := &recordingTransport{Inproc: cluster.NewInproc(inst.CNF, 2, solver.DefaultOptions()), t: t}
	r := NewRunner(inst.CNF, Config{SampleSize: 12, Seed: 3, CostMetric: solver.CostPropagations, Transport: tr})
	sc := r.NewScope(5)
	space := decomp.NewSpace(inst.UnknownStartVars())
	points := []decomp.Point{space.FullPoint(), space.FullPoint().Flip(0)}
	for _, p := range points {
		if _, err := sc.EvaluatePoint(context.Background(), p); err != nil {
			t.Fatal(err)
		}
	}
	if len(tr.batches) != 2 {
		t.Fatalf("%d batches for two evaluations", len(tr.batches))
	}
	if tr.arrays[0] != tr.arrays[1] {
		t.Fatal("the second evaluation was not drawn into the first one's array")
	}
	if tr.results[0] != tr.results[1] {
		t.Fatal("the second evaluation's results did not come back in the first one's array")
	}
	for slot, p := range points {
		fam := decomp.FamilyOf(inst.CNF, p)
		cold := rand.New(rand.NewSource(5 ^ int64(slot)*0x5851f42d4c957f2d))
		for i, got := range tr.batches[slot] {
			if want := fam.DrawAssumptions(make([]cnf.Lit, fam.Dimension()), cold); !slices.Equal(got, want) {
				t.Fatalf("evaluation %d, task %d: %v, a cold draw of its slot is %v", slot, i, got, want)
			}
		}
	}

	// The buffer now holds the second evaluation's vectors, cut from one
	// array; none reaches into its neighbour.
	buf := r.acquireBuffer()
	defer r.releaseBuffer(buf)
	tasks := buf.tasks[:len(tr.batches[1])]
	for i := 0; i+1 < len(tasks); i++ {
		_ = append(tasks[i].Assumptions, cnf.NewLit(1, true))
		if !slices.Equal(tasks[i+1].Assumptions, tr.batches[1][i+1]) {
			t.Fatalf("appending to task %d's assumptions changed task %d's", i, i+1)
		}
	}
}

// TestSampleTasksAllocsIndependentOfN: drawing an evaluation's subproblems
// into a warm buffer allocates nothing, whatever the sample size.
func TestSampleTasksAllocsIndependentOfN(t *testing.T) {
	inst := scopeTestInstance(t)
	fam := decomp.FamilyOf(inst.CNF, decomp.NewSpace(inst.UnknownStartVars()).FullPoint())
	buf := &sampleBuffer{rng: rand.New(rand.NewSource(1))}
	buf.sampleTasks(fam, 2500)
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(20, func() {
			if tasks := buf.sampleTasks(fam, n); len(tasks) != n {
				t.Fatalf("%d tasks for a sample of %d", len(tasks), n)
			}
		})
	}
	if small, large := allocs(25), allocs(2500); small != 0 || large != 0 {
		t.Fatalf("%v allocations for a sample of 25 and %v for 2500 into a warm buffer, want none", small, large)
	}
}

// TestEvaluationBytesIndependentOfSampleLiterals: on a warm in-process
// runner an evaluation draws its sample into the buffers of the one before
// and lends its batch the results array of the one before, so what a further
// subproblem costs it in bytes does not grow with the literals it assumes and
// is not a result's either.  Bivium with 120 unknown state bits is the bench's
// bivium-estimate-tcp shape; a fresh slab of eight-byte literals alone would
// be 8·d a subproblem, a fresh results array about 200 bytes.
func TestEvaluationBytesIndependentOfSampleLiterals(t *testing.T) {
	inst, err := encoder.NewInstance(encoder.Bivium(), encoder.Config{KeystreamLen: 200, KnownSuffix: 57, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	p := decomp.NewSpace(inst.UnknownStartVars()).FullPoint()
	d := p.Count()
	perEvaluation := func(n int) uint64 {
		r := NewRunner(inst.CNF, Config{SampleSize: n, Workers: 2, Seed: 7, CostMetric: solver.CostPropagations})
		if _, err := r.EvaluatePoint(context.Background(), p); err != nil { // builds the solvers, grows the buffers
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := r.EvaluatePoint(context.Background(), p); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := perEvaluation(250), perEvaluation(2500)
	perTask := (float64(large) - float64(small)) / 2250
	t.Logf("%d bytes an evaluation at N = 250, %d at N = 2500: %.0f a further subproblem of %d literals", small, large, perTask, d)
	if perTask > 32 {
		t.Fatalf("%.0f bytes a further subproblem, want at most 32", perTask)
	}
}

// TestSamplesCensoredAtTheCap pins which samples count as censored: those
// that ended Unknown at Config.SubproblemBudget.  On the weakened A5/1
// instance under a one-variable set, a cap of a few conflicts stops every
// sample, and every one is counted, in the evaluation and both ledgers;
// without the cap, or under a cap above every sample's cost, none is.  In a
// pruned evaluation whose allowance is tighter than the cap, the task the
// allowance stopped is the prune certificate, not a censored sample.
func TestSamplesCensoredAtTheCap(t *testing.T) {
	inst := scopeTestInstance(t)
	space := decomp.NewSpace(inst.UnknownStartVars())
	one, err := space.PointFromVars(space.Vars()[:1])
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	evaluate := func(cap solver.Budget, pol eval.Policy, incumbent float64, observe func(Progress)) (*Runner, *eval.Evaluation) {
		t.Helper()
		r := NewRunner(inst.CNF, Config{SampleSize: n, Workers: 2, Seed: 3, CostMetric: solver.CostConflicts, SubproblemBudget: cap})
		pe, err := r.EvaluatePointBudgeted(context.Background(), one, pol, incumbent, observe)
		if err != nil {
			t.Fatal(err)
		}
		return r, pe
	}

	r, capped := evaluate(solver.Budget{MaxConflicts: 3}, eval.Policy{}, math.Inf(1), nil)
	if capped.Sample.Len() != n || capped.SamplesCensored != n ||
		r.Counters().SamplesCensored != n || r.Scope.Counters().SamplesCensored != n {
		t.Fatalf("cap of 3 conflicts: %d samples, %d censored (runner %d, scope %d), want all %d",
			capped.Sample.Len(), capped.SamplesCensored, r.Counters().SamplesCensored, r.Scope.Counters().SamplesCensored, n)
	}

	_, free := evaluate(solver.Budget{}, eval.Policy{}, math.Inf(1), nil)
	most := slices.Max(free.Sample.Values())
	if free.SamplesCensored != 0 {
		t.Fatalf("uncapped: %d samples censored, want none", free.SamplesCensored)
	}
	if _, above := evaluate(solver.Budget{MaxConflicts: uint64(most) + 1}, eval.Policy{}, math.Inf(1), nil); above.SamplesCensored != 0 || above.Estimate.Value != free.Estimate.Value {
		t.Fatalf("cap above every sample (%v conflicts at most): %d censored, F %v against the uncapped %v",
			most, above.SamplesCensored, above.Estimate.Value, free.Estimate.Value)
	}

	// An incumbent whose allowance is a tenth of the cheapest sample's cost:
	// the first task to reach it stops at it and prunes the evaluation.
	least := slices.Min(free.Sample.Values())
	incumbent := least / 10 * math.Exp2(float64(one.Count())) / n
	atAllowance := 0
	_, pruned := evaluate(solver.Budget{MaxConflicts: uint64(most) + 1}, eval.Policy{Prune: true}, incumbent, func(pr Progress) {
		if res := pr.Result; res.Started && !res.Cancelled && res.Status == solver.Unknown {
			atAllowance++
		}
	})
	if !pruned.Pruned || atAllowance == 0 {
		t.Fatalf("incumbent %v: pruned %v with %d tasks stopped at the allowance; the test needs a prune by one", incumbent, pruned.Pruned, atAllowance)
	}
	if pruned.SamplesCensored != 0 {
		t.Fatalf("pruned evaluation: %d samples censored, want none (%d tasks stopped at the allowance)", pruned.SamplesCensored, atAllowance)
	}
}
