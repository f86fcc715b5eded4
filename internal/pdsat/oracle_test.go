package pdsat

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"github.com/paper-repro/pdsat-go/internal/cluster"
	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/decomp"
	"github.com/paper-repro/pdsat-go/internal/encoder"
	"github.com/paper-repro/pdsat-go/internal/eval"
	"github.com/paper-repro/pdsat-go/internal/solver"
)

// A cost table is the recorded truth about one decomposition family: what
// the in-process transport returned for every member.  The oracle is the
// transport that serves it, so that an evaluation — its sampling, stages,
// pruning and ledger — runs against that truth without a solver.  The
// committed tables are goldens like the others; re-record them with
//
//	PDSAT_UPDATE_GOLDENS=1 go test -run TestCostTablesMatchTheSolver ./internal/pdsat

// costTable records, for every member α of the 2^d family over Vars (bit k
// of α is the value of Vars[k]), the result of the subproblem C[X̃/α] with
// Rest assumed behind it: the status, the solver statistics without
// SolveTime (wall clock) and the sparse conflict activity.
type costTable struct {
	Instance string        `json:"instance"`
	Vars     []cnf.Var     `json:"vars"`
	Rest     []cnf.Lit     `json:"rest,omitempty"`
	Members  []tableMember `json:"members"`
}

type tableMember struct {
	Status   solver.Status           `json:"status"`
	Stats    solver.Stats            `json:"stats"`
	Activity solver.SparseActivities `json:"activity"`
}

// costs are the members' costs in propagations.
func (ct *costTable) costs() []float64 {
	costs := make([]float64, len(ct.Members))
	for m, member := range ct.Members {
		costs[m] = solver.EffortCost(member.Stats, solver.CostPropagations)
	}
	return costs
}

// costTableFamilies are the families whose tables are committed, 2^8
// members each (see TestEq3IntervalCoversExactFamilyCost).  build returns the
// formula, the varied variables and the assumptions behind them.
var costTableFamilies = []struct {
	name, file, instance string
	build                func(testing.TB) (*cnf.Formula, []cnf.Var, []cnf.Lit)
}{
	{
		"bivium", "costtable_bivium.json",
		"Bivium, keystream 200, KnownSuffix 57, seed 7: the first 8 unknown start variables varied, the other 112 assumed at math/rand seed 0",
		func(t testing.TB) (*cnf.Formula, []cnf.Var, []cnf.Lit) {
			inst := weakBivium(t, 57, 200, 7)
			vars := inst.UnknownStartVars()
			rng := rand.New(rand.NewSource(0))
			var rest []cnf.Lit
			for _, v := range vars[8:] {
				rest = append(rest, cnf.NewLit(v, rng.Intn(2) == 0))
			}
			return inst.CNF, vars[:8], rest
		},
	},
	{
		"a5/1", "costtable_a51.json",
		"A5/1, keystream 96, KnownSuffix 44, seed 7: the last 8 unknown start variables varied, the other 12 left to CDCL",
		func(t testing.TB) (*cnf.Formula, []cnf.Var, []cnf.Lit) {
			inst, err := encoder.NewInstance(encoder.A51(), encoder.Config{KeystreamLen: 96, KnownSuffix: 44, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			vars := inst.UnknownStartVars()
			return inst.CNF, vars[len(vars)-8:], nil
		},
	},
}

// loadCostTable reads a committed table, each member's activity in
// ascending variable order, the order a harvest has: the committed tables
// were recorded while an in-process result listed its variables in the order
// of their first bumps.
func loadCostTable(t testing.TB, file string) *costTable {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatalf("missing cost table (record with PDSAT_UPDATE_GOLDENS=1): %v", err)
	}
	var table costTable
	if err := json.Unmarshal(buf, &table); err != nil {
		t.Fatal(err)
	}
	if len(table.Members) != 1<<len(table.Vars) {
		t.Fatalf("%s has %d members over %d variables", file, len(table.Members), len(table.Vars))
	}
	for _, m := range table.Members {
		a := m.Activity
		at := make(map[cnf.Var]float64, len(a.Vars))
		for i, v := range a.Vars {
			at[v] = a.Acts[i]
		}
		slices.Sort(a.Vars)
		for i, v := range a.Vars {
			a.Acts[i] = at[v]
		}
	}
	return &table
}

// solveMembers solves the given members of the family over vars, with rest
// assumed behind them, as one pristine batch of the in-process transport —
// the way an evaluation's sample is solved — and returns each one's result.
func solveMembers(t testing.TB, f *cnf.Formula, vars []cnf.Var, rest []cnf.Lit, members []int) []tableMember {
	t.Helper()
	fam := decomp.NewFamily(f, vars)
	tasks := make([]cluster.Task, len(members))
	for i, m := range members {
		tasks[i] = cluster.Task{Index: i, Assumptions: append(fam.AssumptionsFor(uint64(m)), rest...)}
	}
	out := make([]tableMember, len(members))
	_, err := cluster.NewInproc(f, 2, solver.DefaultOptions()).RunObserved(context.Background(), tasks,
		cluster.BatchOptions{CostMetric: solver.CostPropagations}, func(res cluster.TaskResult) {
			res.Stats.SolveTime = 0
			out[res.Index] = tableMember{Status: res.Status, Stats: res.Stats}
			if len(res.Activity.Vars) > 0 { // an empty harvest buffer is nil or not by chance
				out[res.Index].Activity = res.Activity.Clone()
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range out {
		if m.Status == solver.Unknown {
			t.Fatalf("member %d of the family was not decided", members[i])
		}
	}
	return out
}

// TestCostTablesMatchTheSolver spot-checks every committed table against the
// real solver: its first and last members, its costliest and two drawn at
// random must come back from the in-process transport exactly as recorded.
// With PDSAT_UPDATE_GOLDENS set it records every member instead, one a line.
func TestCostTablesMatchTheSolver(t *testing.T) {
	for _, fam := range costTableFamilies {
		t.Run(fam.name, func(t *testing.T) {
			f, vars, rest := fam.build(t)
			if os.Getenv("PDSAT_UPDATE_GOLDENS") != "" {
				all := make([]int, 1<<len(vars))
				for i := range all {
					all[i] = i
				}
				buf, err := json.Marshal(costTable{Instance: fam.instance, Vars: vars, Rest: rest, Members: solveMembers(t, f, vars, rest, all)})
				if err != nil {
					t.Fatal(err)
				}
				buf = append(bytes.ReplaceAll(buf, []byte(`,{"status"`), []byte(",\n{\"status\"")), '\n')
				if err := os.WriteFile(filepath.Join("testdata", fam.file), buf, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			table := loadCostTable(t, fam.file)
			if !slices.Equal(table.Vars, vars) || !slices.Equal(table.Rest, rest) {
				t.Fatalf("the table is over %v behind %v, the family over %v behind %v", table.Vars, table.Rest, vars, rest)
			}
			costs := table.costs()
			rng := rand.New(rand.NewSource(1))
			picks := []int{0, len(costs) - 1, slices.Index(costs, slices.Max(costs)), rng.Intn(len(costs)), rng.Intn(len(costs))}
			for i, got := range solveMembers(t, f, vars, rest, picks) {
				if want := table.Members[picks[i]]; !reflect.DeepEqual(got, want) {
					t.Errorf("member %d: the solver returns %+v, the table has %+v", picks[i], got, want)
				}
			}
		})
	}
}

// oracle is the one scripted transport: it answers every task from a cost
// table instead of solving it.  A task is looked up by its literals over the
// table's variables, in any order; a batch with a task that misses or
// repeats one, assumes any other variable or breaks the index contract fails
// before anything is answered, as checkBatch fails a real one.  Towards the
// runner it keeps the rest of the cluster contract as Inproc does:
//
//   - one result per task, in a chosen completion order (order holds batch
//     positions; nil is index order);
//   - once the batch's abort has fired, a satisfiable member has stopped it
//     (StopOnSat) or its context is cancelled, every unanswered task comes
//     back as a placeholder, Started false; an abort is no error;
//   - a member above the batch's budget comes back Unknown and Interrupted,
//     its count in the budget's unit capped at the limit, with no activity;
//   - the activity of the others is lent to the observer for its call and
//     overwritten after it; returned results carry none;
//   - the results are recorded in the batch's lent results array when it has
//     room for them all (cluster.BatchOptions.Results).
//
// It answers on the calling goroutine and keeps nothing of a batch once the
// call has returned, so it is a cluster.Borrower.
type oracle struct {
	table *costTable
	bit   map[cnf.Var]int // table variable → its bit of the member index
	order []int
	// calls counts the batches, placeholders the tasks answered with one.
	calls, placeholders atomic.Int64
}

func newOracle(table *costTable) *oracle {
	o := &oracle{table: table, bit: make(map[cnf.Var]int, len(table.Vars))}
	for k, v := range table.Vars {
		o.bit[v] = k
	}
	return o
}

func (o *oracle) Workers() int  { return 1 }
func (o *oracle) Close() error  { return nil }
func (o *oracle) BorrowsTasks() {}

func (o *oracle) Run(ctx context.Context, tasks []cluster.Task, opts cluster.BatchOptions) ([]cluster.TaskResult, error) {
	return o.RunAbortable(ctx, tasks, opts, nil, nil)
}

func (o *oracle) RunObserved(ctx context.Context, tasks []cluster.Task, opts cluster.BatchOptions, observe func(cluster.TaskResult)) ([]cluster.TaskResult, error) {
	return o.RunAbortable(ctx, tasks, opts, observe, nil)
}

// RunDispatch is RunAbortable with zero statistics: the oracle answers on
// one goroutine and has nothing to steal or speculate.
func (o *oracle) RunDispatch(ctx context.Context, tasks []cluster.Task, opts cluster.BatchOptions, observe func(cluster.TaskResult), abort <-chan struct{}) ([]cluster.TaskResult, cluster.DispatchStats, error) {
	results, err := o.RunAbortable(ctx, tasks, opts, observe, abort)
	return results, cluster.DispatchStats{}, err
}

func (o *oracle) RunAbortable(ctx context.Context, tasks []cluster.Task, opts cluster.BatchOptions, observe func(cluster.TaskResult), abort <-chan struct{}) ([]cluster.TaskResult, error) {
	members, err := o.members(tasks)
	if err != nil {
		return nil, err
	}
	o.calls.Add(1)
	results := opts.Results[:0]
	if cap(results) < len(tasks) {
		results = make([]cluster.TaskResult, 0, len(tasks))
	}
	var lent solver.SparseActivities
	stopped := false
	for k := range tasks {
		pos := k
		if o.order != nil {
			pos = o.order[k]
		}
		select {
		case <-abort:
			stopped = true
		default:
		}
		res := cluster.TaskResult{Index: tasks[pos].Index, Status: solver.Unknown}
		if stopped || ctx.Err() != nil {
			o.placeholders.Add(1)
		} else {
			res = o.answer(res.Index, o.table.Members[members[pos]], opts, &lent)
			stopped = opts.Stop == cluster.StopOnSat && res.Status == solver.Sat
		}
		kept := res
		kept.Activity = solver.SparseActivities{}
		results = append(results, kept)
		if observe != nil {
			observe(res)
		}
		for i := range lent.Vars { // the loan ends with the observer's call
			lent.Vars[i], lent.Acts[i] = 1, 1e9
		}
	}
	return results, ctx.Err()
}

// members validates the batch and returns the member each task names, by
// position.
func (o *oracle) members(tasks []cluster.Task) ([]int, error) {
	if o.order != nil && len(o.order) != len(tasks) {
		return nil, fmt.Errorf("oracle: a completion order of %d for a batch of %d", len(o.order), len(tasks))
	}
	seen := make([]bool, len(tasks))
	members := make([]int, len(tasks))
	for pos, task := range tasks {
		if task.Index < 0 || task.Index >= len(tasks) || seen[task.Index] {
			return nil, fmt.Errorf("oracle: batch task indices must be a permutation of 0..%d (got index %d)", len(tasks)-1, task.Index)
		}
		seen[task.Index] = true
		assigned := 0
		for _, l := range task.Assumptions {
			k, ok := o.bit[l.Var()]
			if !ok || assigned>>k&1 == 1 {
				return nil, fmt.Errorf("oracle: task %d assumes literal %d, not over a variable of the table it has not assigned", task.Index, l)
			}
			assigned |= 1 << k
			if l.Positive() {
				members[pos] |= 1 << k
			}
		}
		if assigned != 1<<len(o.table.Vars)-1 {
			return nil, fmt.Errorf("oracle: task %d leaves a variable of the table unassigned", task.Index)
		}
	}
	return members, nil
}

// answer is the member's result for the task at index under the batch's
// budget and cost metric, its activity copied into lent.
func (o *oracle) answer(index int, m tableMember, opts cluster.BatchOptions, lent *solver.SparseActivities) cluster.TaskResult {
	res := cluster.TaskResult{Index: index, Status: m.Status, Stats: m.Stats, Started: true}
	conflicts := capAt(&res.Stats.Conflicts, opts.Budget.MaxConflicts)
	propagations := capAt(&res.Stats.Propagations, opts.Budget.MaxPropagations)
	if conflicts || propagations {
		res.Status, res.Interrupted = solver.Unknown, true
	} else {
		lent.Vars = append(lent.Vars[:0], m.Activity.Vars...)
		lent.Acts = append(lent.Acts[:0], m.Activity.Acts...)
		res.Activity = *lent
	}
	res.Cost = solver.EffortCost(res.Stats, opts.CostMetric)
	return res
}

// capAt lowers *count to limit if it is above it (a zero limit is none) and
// reports whether it was.
func capAt(count *uint64, limit uint64) bool {
	if limit == 0 || *count <= limit {
		return false
	}
	*count = limit
	return true
}

// scopeOutcome is what one evaluation leaves behind in a fresh scope: the
// evaluation without its wall time, the sample, the scope's ledger without
// solve time, its activity table and the Progress events it sent.
type scopeOutcome struct {
	eval     eval.Evaluation
	sample   []float64
	counters Counters
	activity []float64
	events   int
}

// evaluateInScope evaluates once in a fresh scope of the runner and reports
// whether a result of the sample was cut short by its budget.
func evaluateInScope(t *testing.T, r *Runner, seed int64, p decomp.Point, pol eval.Policy, incumbent float64) (out scopeOutcome, truncated bool) {
	t.Helper()
	sc := r.NewScope(seed)
	pe, err := sc.EvaluatePointBudgeted(context.Background(), p, pol, incumbent, func(pr Progress) {
		out.events++
		if pr.Done != out.events || pr.Total != r.cfg.SampleSize {
			t.Errorf("progress %d/%d at event %d of %d samples", pr.Done, pr.Total, out.events, r.cfg.SampleSize)
		}
		truncated = truncated || pr.Result.Interrupted && !pr.Result.Cancelled
	})
	if err != nil {
		t.Fatal(err)
	}
	out.eval, out.sample, out.counters = pe.Evaluation(), pe.Sample.Values(), sc.Counters()
	out.eval.WallTime, out.counters.Solver.SolveTime = 0, 0
	for v := 0; v <= r.formula.NumVars; v++ {
		out.activity = append(out.activity, sc.VarActivity(cnf.Var(v)))
	}
	return out, truncated
}

// oracleRunners are a runner on the in-process transport, with one worker so
// that an abort lands after the same result as on the oracle, and one on the
// oracle over the committed A5/1 table, both at the same seed; truth is the
// family's exact cost, its F.
func oracleRunners(t *testing.T) (real, scripted *Runner, truth float64, p decomp.Point) {
	f, vars, _ := costTableFamilies[1].build(t)
	table := loadCostTable(t, costTableFamilies[1].file)
	for _, c := range table.costs() {
		truth += c
	}
	cfg := Config{SampleSize: 100, Workers: 1, Seed: 11, CostMetric: solver.CostPropagations}
	real = NewRunner(f, cfg)
	cfg.Transport = newOracle(table)
	return real, NewRunner(f, cfg), truth, decomp.NewSpace(vars).FullPoint()
}

// TestOracleMatchesInproc: over the committed A5/1 table an evaluation
// cannot tell the oracle from the in-process transport.  The same slots are
// evaluated on both under the zero policy, under a stage plan whose ε any
// first stage meets, and under DefaultPolicy against incumbents from none to
// half the family's F.  Every evaluation that no budget truncates must
// return the same F, sample, ledger and activity, bit for bit, early-stopped
// and pruned ones included; a pruned one's certified lower bound, its value,
// lies above the incumbent.
func TestOracleMatchesInproc(t *testing.T) {
	real, scripted, truth, p := oracleRunners(t)
	compared, early, pruned := 0, 0, 0
	for seed := int64(0); seed < 5; seed++ {
		for _, c := range []struct {
			pol       eval.Policy
			incumbent float64
		}{
			{eval.Policy{}, math.Inf(1)},
			{eval.Policy{Stages: 3, Epsilon: 10}, math.Inf(1)},
			{eval.DefaultPolicy(), math.Inf(1)},
			{eval.DefaultPolicy(), 2 * truth},
			{eval.DefaultPolicy(), truth},
			{eval.DefaultPolicy(), 0.5 * truth},
		} {
			want, truncated := evaluateInScope(t, real, seed, p, c.pol, c.incumbent)
			got, _ := evaluateInScope(t, scripted, seed, p, c.pol, c.incumbent)
			if truncated {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, incumbent %v, %+v: the oracle's evaluation differs from the solver's:\n got %+v\nwant %+v",
					seed, c.incumbent, c.pol, got, want)
			}
			if ev := want.eval; ev.Pruned && (ev.Value != ev.LowerBound || ev.LowerBound <= c.incumbent) {
				t.Fatalf("seed %d: pruned against %v with value %v and lower bound %v", seed, c.incumbent, ev.Value, ev.LowerBound)
			}
			compared++
			if want.eval.EarlyStopped {
				early++
			}
			if want.eval.Pruned {
				pruned++
			}
		}
	}
	t.Logf("%d evaluations compared, %d of them stopped early, %d pruned", compared, early, pruned)
	if compared < 25 || early == 0 || pruned == 0 {
		t.Fatalf("%d evaluations compared, %d early stops, %d pruned: the test proves too little", compared, early, pruned)
	}
}

// TestOracleHeldResultsKeepTheirActivity: answering in reverse index order,
// the oracle makes an evaluation under DefaultPolicy hold back every result
// past its first stage boundary until the results below it are in.  A held
// result's activity vector is a copy in the evaluation's buffer: the oracle
// overwrites the vector it lent after every observer call, so a held result
// still pointing at it would add up that scribble.  Over the A5/1 table each
// evaluation, early-stopped or whole, returns what it returns in index order
// — value, sample, lower bound, stages — with the same ledger and activity
// table, on runners whose buffers serve evaluation after evaluation.
func TestOracleHeldResultsKeepTheirActivity(t *testing.T) {
	_, inOrder, _, p := oracleRunners(t)
	o := newOracle(loadCostTable(t, costTableFamilies[1].file))
	n := inOrder.cfg.SampleSize
	o.order = make([]int, n)
	for i := range o.order {
		o.order[i] = n - 1 - i
	}
	cfg := inOrder.cfg
	cfg.Transport = o
	reversed := NewRunner(inOrder.formula, cfg)
	// ε = 0.1 never stops this family's samples early; 0.5 stops some at the
	// first checkpoint, some at the second.
	loose := eval.DefaultPolicy()
	loose.Epsilon = 0.5
	stagesRun := map[int]int{} // stages run → evaluations
	for _, pol := range []eval.Policy{eval.DefaultPolicy(), loose} {
		for seed := int64(0); seed < 10; seed++ {
			want, _ := evaluateInScope(t, inOrder, seed, p, pol, math.Inf(1))
			got, _ := evaluateInScope(t, reversed, seed, p, pol, math.Inf(1))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, ε %v: the evaluation in reverse order differs from the one in index order:\n got %+v\nwant %+v", seed, pol.Epsilon, got, want)
			}
			stagesRun[want.eval.StagesRun]++
		}
	}
	t.Logf("evaluations by the stages they ran: %v", stagesRun)
	if len(stagesRun) != 3 {
		t.Fatalf("evaluations by the stages they ran: %v; want some at each of the three", stagesRun)
	}
}

// TestOraclePrunesOnlyWorsePoints is ROADMAP item 1(c)'s third check, on
// the A5/1 table: an evaluation that DefaultPolicy prunes is worse than the
// incumbent it was pruned against — the same slot evaluated whole under
// the zero policy has F above it — and its certified LowerBound does not
// exceed that F.  250 (slot, incumbent) pairs, incumbents from a third to
// twice the family's F.
func TestOraclePrunesOnlyWorsePoints(t *testing.T) {
	_, r, truth, p := oracleRunners(t)
	ctx := context.Background()
	pruned := 0
	for slot := 0; slot < 50; slot++ {
		whole, err := r.EvaluateSlotObserved(ctx, p, eval.Policy{}, math.Inf(1), slot, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, factor := range []float64{0.33, 0.6, 0.8, 1.2, 2} {
			incumbent := factor * truth
			ev, err := r.EvaluateSlotObserved(ctx, p, eval.DefaultPolicy(), incumbent, slot, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !ev.Pruned {
				continue
			}
			pruned++
			if whole.Value <= incumbent || ev.LowerBound > whole.Value {
				t.Errorf("slot %d: pruned against %v with lower bound %v, but its whole sample gives F = %v",
					slot, incumbent, ev.LowerBound, whole.Value)
			}
		}
	}
	t.Logf("%d of 250 evaluations pruned", pruned)
	if pruned < 25 {
		t.Fatalf("only %d of 250 evaluations pruned: the test proves too little", pruned)
	}
}

// TestOracleAbortPath drives the abort through RunAbortable: an evaluation
// pruned at its first result and one that stops early at its first
// checkpoint get placeholders for what was not answered, and the ledger
// balances, planned == solved + aborted + skipped.  A solve that stops on
// the family's satisfiable member gets placeholders too.
func TestOracleAbortPath(t *testing.T) {
	f, p := syntheticFormula()
	flat := slices.Repeat([]float64{300}, 256)
	for _, c := range []struct {
		name            string
		incumbent       float64
		placeholders    int64
		solved, aborted int
	}{
		// Capped at two propagations, the first result crosses the bound: the
		// rest of its stage is aborted, the stages behind it are skipped.
		{"pruned", 1e-9, 99, 1, 24},
		{"early stop", math.Inf(1), 75, 25, 0},
	} {
		o := newOracle(syntheticTable(flat))
		r := NewRunner(f, Config{SampleSize: 100, Seed: 3, CostMetric: solver.CostPropagations, Transport: o})
		pe, err := r.EvaluatePointBudgeted(context.Background(), p, eval.DefaultPolicy(), c.incumbent, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := r.Counters()
		if pe.Pruned != (c.name == "pruned") || pe.EarlyStopped == pe.Pruned || o.placeholders.Load() != c.placeholders ||
			got.SubproblemsSolved != c.solved || got.SubproblemsAborted != c.aborted ||
			got.SamplesPlanned != got.SubproblemsSolved+got.SubproblemsAborted+got.SamplesSkipped {
			t.Errorf("%s: pruned %v, early stop %v, %d placeholders, ledger %+v", c.name, pe.Pruned, pe.EarlyStopped, o.placeholders.Load(), got)
		}
	}

	o := newOracle(syntheticTable(flat, 77, 200))
	report, err := NewRunner(f, Config{Seed: 3, CostMetric: solver.CostPropagations, Transport: o}).
		Solve(context.Background(), p, SolveOptions{StopOnSat: true})
	if err != nil {
		t.Fatal(err)
	}
	if !report.FoundSat || report.SatIndex != 77 || report.Processed != 78 || o.placeholders.Load() != 178 {
		t.Errorf("a solve stopped on SAT: %+v, %d placeholders", report, o.placeholders.Load())
	}
}
