package cluster

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/paper-repro/pdsat-go/internal/solver"
)

// The lent results array's tests compare results and scribble over arrays;
// under the race detector a transport that wrote into a lent array after its
// call returned would be reported, and without it the scribble would show.

// scribbled is what scribble writes.
var scribbled = TaskResult{Index: -1, Cost: -1}

// scribble overwrites the whole array behind results, as a caller lending it
// to its next batch would, and returns that array.
func scribble(results []TaskResult) []TaskResult {
	all := results[:cap(results)]
	for i := range all {
		all[i] = scribbled
	}
	return all
}

// untouched fails unless every element of the array is still a scribble.
func untouched(t *testing.T, all []TaskResult) {
	t.Helper()
	for i, res := range all {
		if !reflect.DeepEqual(res, scribbled) {
			t.Fatalf("element %d of the array was written after the call returned: %+v", i, res)
		}
	}
}

// sameArray reports whether got lies on the array behind lent.
func sameArray(got, lent []TaskResult) bool {
	return cap(got) > 0 && cap(got) == cap(lent) && &got[:1][0] == &lent[:1][0]
}

// byIndex returns the results by task index, without their solve times.
func byIndex(results []TaskResult) []TaskResult {
	out := make([]TaskResult, len(results))
	for _, res := range results {
		res.Stats.SolveTime = 0
		out[res.Index] = res
	}
	return out
}

// TestResultsArrayIsLent: a batch lent an array with room for its results
// records them there and returns a slice of it, index for index the results
// of an unlent run, on the in-process transport and on a loopback leader with
// two workers.  The caller may overwrite the array the moment the call
// returns, and nothing writes into it afterwards — not after a mid-batch abort
// with speculation on, not after a stop on SAT, not after a worker was dropped
// mid-batch and its tasks requeued; the next batch runs before the array is
// looked at again, so that a late result has the time to land.  An array too
// short for the batch is ignored, not grown into.
func TestResultsArrayIsLent(t *testing.T) {
	f := requeueFormula()
	tasks := requeueTasks(64) // a quarter of them satisfiable
	opts := BatchOptions{CostMetric: solver.CostPropagations, Steal: true, Speculate: true}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	lost := make(chan int, 1)
	leader, err := Listen("127.0.0.1:0", f, LeaderOptions{OnEvent: func(ev ClusterEvent) {
		if ev.Kind == WorkerLost {
			select {
			case lost <- ev.Count:
			default:
			}
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	var served sync.WaitGroup
	defer served.Wait()
	defer leader.Close()
	addr := leader.Addr().String()
	for _, name := range []string{"one", "two"} {
		served.Add(1)
		go func() {
			defer served.Done()
			// A task waits a little before its solve, so that an abort finds
			// tasks in flight and a batch's tail is speculated.
			_ = Serve(ctx, addr, WorkerOptions{Capacity: 1, Name: name,
				TaskDelay: func(Task) time.Duration { return 100 * time.Microsecond }})
		}()
	}
	if err := leader.WaitForWorkers(ctx, 2); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		tr   AbortableTransport
	}{
		{"inproc", NewInproc(f, 2, solver.DefaultOptions())},
		{"loopback", leader},
	} {
		// run runs the batch, aborting it from the observer at the abortAt-th
		// result (0: never).
		run := func(t *testing.T, opts BatchOptions, abortAt int) []TaskResult {
			t.Helper()
			abort := make(chan struct{})
			seen := 0
			results, err := c.tr.RunAbortable(ctx, tasks, opts, func(TaskResult) {
				if seen++; seen == abortAt {
					close(abort)
				}
			}, abort)
			if err != nil || len(results) != len(tasks) {
				t.Fatalf("%d results for %d tasks, error %v", len(results), len(tasks), err)
			}
			return results
		}
		// lent runs the batch on a lent array with room for it and checks that
		// the results are in that array; then it overwrites the array, runs
		// the next batch and checks that nothing wrote into it since.  It
		// returns the results by index.
		lent := func(t *testing.T, opts BatchOptions, abortAt int) []TaskResult {
			t.Helper()
			opts.Results = make([]TaskResult, 0, len(tasks))
			got := run(t, opts, abortAt)
			if !sameArray(got, opts.Results) {
				t.Fatal("the results are not in the lent array")
			}
			want := byIndex(got)
			all := scribble(got)
			run(t, BatchOptions{CostMetric: solver.CostPropagations}, 0)
			untouched(t, all)
			return want
		}

		t.Run(c.name, func(t *testing.T) {
			unlent := byIndex(run(t, opts, 0))
			if got := lent(t, opts, 0); !reflect.DeepEqual(got, unlent) {
				t.Fatalf("the lent run's results differ from the unlent run's:\n got %+v\nwant %+v", got, unlent)
			}

			short := BatchOptions{CostMetric: solver.CostPropagations, Results: make([]TaskResult, len(tasks)-1)}
			scribble(short.Results)
			if got := run(t, short, 0); sameArray(got, short.Results) {
				t.Fatal("the results were recorded in an array too short for them")
			}
			untouched(t, short.Results)

			for _, abortAt := range []int{len(tasks) / 2, len(tasks) - 1} {
				lent(t, opts, abortAt)
			}

			stop := opts
			stop.Stop = StopOnSat
			sat := 0
			for _, res := range lent(t, stop, 0) {
				if res.Status == solver.Sat {
					sat++
				}
			}
			if sat == 0 {
				t.Fatal("no task of the stop-on-SAT batch was satisfiable")
			}

			if c.tr != leader {
				return
			}
			// A third worker registers behind the two, takes a chunk — four tasks
			// into its free slots and a queue behind them — and goes down without
			// answering: the leader requeues what it held onto the other two.
			gotTasks := make(chan int, 1)
			go fakeWorker(t, addr, 4, gotTasks)
			if err := leader.WaitForWorkers(ctx, 3); err != nil {
				t.Fatal(err)
			}
			if got := lent(t, opts, 0); !reflect.DeepEqual(got, unlent) {
				t.Fatalf("the requeued run's results differ from the unlent run's:\n got %+v\nwant %+v", got, unlent)
			}
			if took, requeued := <-gotTasks, <-lost; took == 0 || requeued < took {
				t.Fatalf("the lost worker took a chunk of %d tasks, %d were requeued", took, requeued)
			}
		})
	}
}
