// Command bench is the repository's benchmark: five fixed-seed workloads run
// through the public pdsat.Session API for the end-to-end metrics, and once
// more as a traced composition of the same layers for the per-layer
// metrics.  See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"
)

// options are the command-line settings.
type options struct {
	seed int64
	// seconds is how long one workload measures; reps, when positive, fixes
	// the number of rounds instead.
	seconds float64
	reps    int
	// endToEnd and layers select the untraced and the traced phase.
	endToEnd, layers bool
	// traceDir receives trace-<workload>.json.
	traceDir string
}

// minRounds is the least number of rounds a time-limited run makes.
const minRounds = 3

// result is what one workload's run reports.
type result struct {
	workload string
	// cases and rounds say how many repetitions the end-to-end metrics rest
	// on: every case ran once per round.
	cases, rounds int
	elapsed       time.Duration
	// endToEnd and layers hold the metrics by name (nil for a phase that
	// did not run).
	endToEnd, layers map[string]float64
	checks           checks
}

// benchWorkload runs one workload: rounds over its cases with tracing off,
// then the traced phase on case 0.
//
// A case is one seed-derived input; a round repeats every case once, so a
// case's repetitions do identical work.  The shared host slows identical
// work down by up to a third, for seconds or for minutes at a time, so a
// case's cost is its best repetition, the least disturbed one (README,
// Steadiness: it spreads less between runs than the median or the mean), and
// rounds interleave the cases so that a slow spell does not land on one of
// them.
func benchWorkload(ctx context.Context, w workload, opt options) (*result, error) {
	start := time.Now()
	budget := time.Duration(opt.seconds * float64(time.Second))
	res := &result{workload: w.name}
	c := &res.checks

	byCase := make([][]rep, w.cases)
	if !opt.endToEnd {
		byCase = byCase[:1] // the traced phase needs only case 0
	}
	var last time.Duration
	more := func(round int) bool {
		switch {
		case !opt.endToEnd:
			return round < 2
		case opt.reps > 0:
			return round < opt.reps
		default:
			return round < minRounds || time.Since(start)+last <= budget
		}
	}
	rounds := 0
	for ; more(rounds); rounds++ {
		roundStart := time.Now()
		for i := range byCase {
			r, err := runSession(ctx, w, w.seeds(opt.seed, i), false, c)
			if err != nil {
				return nil, err
			}
			if rounds > 0 {
				first := byCase[i][0]
				c.ok(r.outcome.equal(first.outcome), "%s: fixed-seed results differ between two repetitions of case %d", w.name, i)
				if w.zeroPolicy() {
					c.ok(r.effort == first.effort, "%s: solver effort differs between two repetitions of case %d: %+v vs %+v", w.name, i, r.effort, first.effort)
				}
			}
			byCase[i] = append(byCase[i], r)
		}
		last = time.Since(roundStart)
	}
	if opt.endToEnd {
		res.cases, res.rounds = len(byCase), rounds
		res.endToEnd = map[string]float64{
			"wall_s":   medianOfBest(byCase, func(r rep) float64 { return r.wallS }),
			"cpu_s":    medianOfBest(byCase, func(r rep) float64 { return r.cpuS }),
			"alloc_mb": medianOfBest(byCase, func(r rep) float64 { return r.allocMB }),
			"setup_s":  medianOfBest(byCase, func(r rep) float64 { return r.setupS }),
		}
	}
	if opt.layers {
		var err error
		if res.layers, err = tracedPhase(ctx, w, opt, best(byCase[0], func(r rep) float64 { return r.wallS }), c); err != nil {
			return nil, err
		}
	}
	res.elapsed = time.Since(start)
	return res, nil
}

// best returns the repetition with the lowest value.
func best(reps []rep, value func(rep) float64) rep {
	b := reps[0]
	for _, r := range reps[1:] {
		if value(r) < value(b) {
			b = r
		}
	}
	return b
}

// medianOfBest returns the median over the cases of each case's lowest
// value.
func medianOfBest(byCase [][]rep, value func(rep) float64) float64 {
	values := make([]float64, len(byCase))
	for i, reps := range byCase {
		values[i] = value(best(reps, value))
	}
	return median(values)
}

// tracedPhase runs case 0's seeds once more as the traced composition,
// checks it against the Session run, and returns the per-layer metrics.
func tracedPhase(ctx context.Context, w workload, opt options, session rep, c *checks) (map[string]float64, error) {
	s := w.seeds(opt.seed, 0)
	t, err := runTraced(ctx, w, s, c)
	if err != nil {
		return nil, err
	}
	c.ok(t.outcome.equal(session.outcome), "%s: the traced composition's fixed-seed results differ from the Session run's", w.name)
	if w.zeroPolicy() {
		c.ok(t.effort == session.effort, "%s: the traced composition's solver effort differs from the Session run's: %+v vs %+v", w.name, t.effort, session.effort)
	}
	if w.tcp {
		ref, err := runSession(ctx, w, s, true, c)
		if err != nil {
			return nil, err
		}
		c.ok(ref.outcome.equal(session.outcome), "%s: fixed-seed results differ between TCP and the in-process reference", w.name)
		if w.zeroPolicy() {
			c.ok(ref.effort == session.effort, "%s: solver effort differs between TCP and the in-process reference", w.name)
		}
	}

	m := t.metrics
	probeSolver(m, t.formula, t.replay)
	c.ok(m["solver.replay_mismatch"] == 0, "%s: %v replayed tasks cost something else than the transport reported", w.name, m["solver.replay_mismatch"])
	if err := probeSampling(m, t.formula, t.point, w.sample); err != nil {
		return nil, err
	}
	m["session.events"] = float64(session.events)
	m["session.submit_us"] = session.submitUS
	m["session.result_lag_us"] = session.resultLagUS
	m["trace.overhead_pct"] = 100 * (t.wallS - session.wallS) / session.wallS
	if err := writeTrace(opt.traceDir, w.name, opt.seed, t.spans); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	return m, nil
}

// report prints a workload's metrics by name with their units, and as the
// last line the result object the benchmark contract prescribes.
func (res *result) report(out io.Writer, opt options) error {
	fmt.Fprintf(out, "== %s  seed %d  %.1f s  ops %d  ops_failed %d\n",
		res.workload, opt.seed, res.elapsed.Seconds(), res.checks.attempted, res.checks.failed)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	values := make(map[string]value)
	if res.endToEnd != nil {
		for _, mt := range endToEnd {
			v := res.endToEnd[mt.name]
			fmt.Fprintf(out, "  %-34s %14.6g %-6s median of %d cases, best of %d rounds\n", mt.name, v, mt.unit, res.cases, res.rounds)
			values[mt.name] = value{v, mt.unit}
		}
	}
	if res.layers != nil {
		for _, mt := range perLayer {
			v := res.layers[mt.name]
			fmt.Fprintf(out, "  %-34s %14.6g %s\n", mt.name, v, mt.unit)
			if !mt.partial {
				values[mt.name] = value{v, mt.unit}
			}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.checks.failed == 0, res.checks.attempted, res.checks.failed, values})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// compare prints, per workload and end-to-end metric, the medians of two
// sets of runs of the same code, their relative difference and whether it
// is inside the metric's bound.
func compare(out io.Writer, first, second []*result) {
	fmt.Fprintf(out, "== A/A: two sets of runs of the same code\n")
	for i, a := range first {
		b := second[i]
		for _, mt := range endToEnd {
			va, vb := a.endToEnd[mt.name], b.endToEnd[mt.name]
			diff := (vb - va) / va
			verdict := "inside"
			if diff > mt.bound {
				verdict = "OUTSIDE"
			}
			fmt.Fprintf(out, "  %-20s %-9s %12.6g %12.6g %-4s %+7.2f%%  bound %4.0f%%  %s\n",
				a.workload, mt.name, va, vb, mt.unit, 100*diff, 100*mt.bound, verdict)
		}
	}
}

// selectWorkloads resolves a comma-separated list of names (empty: all).
func selectWorkloads(all []workload, names string) ([]workload, error) {
	if names == "" {
		return all, nil
	}
	var chosen []workload
	for _, name := range strings.Split(names, ",") {
		found := false
		for _, w := range all {
			if w.name == name {
				chosen = append(chosen, w)
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
	}
	return chosen, nil
}

// run is main without the process exit: it runs the workloads at the given
// sizes and returns the exit code.
func run(ctx context.Context, args []string, sz sizes, traceDir string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	opt := options{traceDir: traceDir}
	fs.Int64Var(&opt.seed, "seed", 7, "the only source of randomness")
	fs.Float64Var(&opt.seconds, "seconds", 25, "how long each workload measures")
	fs.IntVar(&opt.reps, "reps", 0, "rounds per workload (0: as many as fit in -seconds, at least 3)")
	names := fs.String("workload", "", "comma-separated workload names (default: all)")
	trace := fs.String("trace", "both", "0 or false: end-to-end metrics only; 1 or true: the traced run's per-layer metrics only; both")
	aa := fs.Bool("aa", false, "run two complete sets back to back and compare their medians against the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch *trace {
	case "0", "false":
		opt.endToEnd = true
	case "1", "true":
		opt.layers = true
	case "both":
		opt.endToEnd, opt.layers = true, true
	default:
		fmt.Fprintf(stderr, "bench: -trace %q: want 0, 1 or both\n", *trace)
		return 2
	}
	chosen, err := selectWorkloads(workloads(sz), *names)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}

	sets := 1
	if *aa {
		sets = 2
	}
	failed := false
	results := make([][]*result, sets)
	for set := range results {
		for _, w := range chosen {
			res, err := benchWorkload(ctx, w, opt)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			for _, f := range res.checks.failures {
				fmt.Fprintf(stderr, "bench: FAILED %s\n", f)
			}
			failed = failed || res.checks.failed > 0
			if err := res.report(stdout, opt); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
			results[set] = append(results[set], res)
		}
	}
	if *aa && opt.endToEnd {
		compare(stdout, results[0], results[1])
	}
	if failed {
		return 1
	}
	return 0
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], benchSizes, "out", os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}
