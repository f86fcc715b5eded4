package cluster_test

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/paper-repro/pdsat-go/internal/cluster"
	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/encoder"
	"github.com/paper-repro/pdsat-go/internal/solver"
)

// countingRelay forwards TCP connections to target and counts the bytes of
// each direction, so that a benchmark can read the wire volume from outside
// the package.
type countingRelay struct {
	ln                  net.Listener
	toWorkers, toLeader atomic.Int64
}

func startRelay(b testing.TB, target string) *countingRelay {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	r := &countingRelay{ln: ln}
	var relays sync.WaitGroup
	relays.Add(1)
	go func() {
		defer relays.Done()
		for {
			down, err := ln.Accept()
			if err != nil {
				return // closed
			}
			up, err := net.Dial("tcp", target)
			if err != nil {
				down.Close()
				continue
			}
			for _, dir := range []struct {
				dst, src net.Conn
				count    *atomic.Int64
			}{{up, down, &r.toLeader}, {down, up, &r.toWorkers}} {
				relays.Add(1)
				go func() {
					defer relays.Done()
					_, _ = io.Copy(countingWriter{dir.dst, dir.count}, dir.src) // ends with the connection
					dir.dst.Close()
					dir.src.Close()
				}()
			}
		}
	}()
	b.Cleanup(func() {
		ln.Close()
		relays.Wait() // the leader's Close, registered later, has ended the connections
	})
	return r
}

type countingWriter struct {
	w     io.Writer
	count *atomic.Int64
}

func (c countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.count.Add(int64(n))
	return n, err
}

// benchCluster starts a leader on the loopback interface with two one-slot
// workers — the benchmark's TCP deployment — which dial the relay when
// there is one.
func benchCluster(b testing.TB, f *cnf.Formula, counted bool) (*cluster.Leader, *countingRelay) {
	leader, err := cluster.Listen("127.0.0.1:0", f, cluster.LeaderOptions{})
	if err != nil {
		b.Fatal(err)
	}
	addr := leader.Addr().String()
	var relay *countingRelay
	if counted {
		relay = startRelay(b, addr)
		addr = relay.ln.Addr().String()
	}
	ctx, cancel := context.WithCancel(context.Background())
	var served sync.WaitGroup
	b.Cleanup(func() {
		leader.Close()
		cancel()
		served.Wait()
	})
	for i := 0; i < 2; i++ {
		served.Add(1)
		go func() {
			defer served.Done()
			_ = cluster.Serve(ctx, addr, cluster.WorkerOptions{Capacity: 1, Name: fmt.Sprintf("bench-%d", i)})
		}()
	}
	wait, stop := context.WithTimeout(ctx, 30*time.Second)
	defer stop()
	if err := leader.WaitForWorkers(wait, 2); err != nil {
		b.Fatal(err)
	}
	return leader, relay
}

// biviumPropagationTasks returns n subproblems of the bench's
// bivium-estimate-tcp shape (Bivium, 200 keystream bits, 120 unknown state
// bits all assumed, decided by propagation in about 90 µs) and their formula.
func biviumPropagationTasks(b testing.TB, n int) (*cnf.Formula, []cluster.Task) {
	inst, err := encoder.NewInstance(encoder.Bivium(), encoder.Config{KeystreamLen: 200, KnownSuffix: 57, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	vars := inst.UnknownStartVars()
	rng := rand.New(rand.NewSource(7))
	tasks := make([]cluster.Task, n)
	for i := range tasks {
		tasks[i].Index = i
		tasks[i].Assumptions = make([]cnf.Lit, len(vars))
		for j, v := range vars {
			tasks[i].Assumptions[j] = cnf.NewLit(v, rng.Intn(2) == 0)
		}
	}
	return inst.CNF, tasks
}

// reportPerTask reports the wall time of the timed section and the
// allocations of the whole process between the two readings, per task.
func reportPerTask(b *testing.B, before, after *runtime.MemStats, tasks int) {
	n := float64(b.N * tasks)
	b.ReportMetric(float64(b.Elapsed().Microseconds())/n, "us/task")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/task")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/task")
}

// batchesOf cuts tasks into batches of size, each indexed from 0.
func batchesOf(tasks []cluster.Task, size int) [][]cluster.Task {
	batches := make([][]cluster.Task, 0, len(tasks)/size)
	for at := 0; at < len(tasks); at += size {
		batch := slices.Clone(tasks[at : at+size])
		for i := range batch {
			batch[i].Index = i
		}
		batches = append(batches, batch)
	}
	return batches
}

// BenchmarkLoopbackDispatch measures what a task costs between the runner
// and the solver: 2500 propagation-only subproblems an iteration, dispatched
// to two one-slot workers over TCP loopback with the options internal/pdsat's
// Runner sets and an observer, as a runner's evaluation has — which is what
// makes the leader keep the results' activity vectors for it —, in batches of
// 25 (the hand-off to the first result and the tail weigh most) and of 2500
// (an estimate: the steady state).  It reports wall time, allocations and allocated bytes per
// task — of the whole process, so leader and workers together — and, for
// the large batch, from a second cluster whose connections run through a
// counting relay, the bytes on the wire per task in each direction (set-up
// excluded).
func BenchmarkLoopbackDispatch(b *testing.B) {
	f, tasks := biviumPropagationTasks(b, 2500)
	opts := cluster.BatchOptions{CostMetric: solver.CostPropagations, Steal: true, Speculate: true}
	for _, size := range []int{25, 2500} {
		b.Run(fmt.Sprintf("batch-%d", size), func(b *testing.B) {
			batches := batchesOf(tasks, size)
			observed := 0
			run := func(l *cluster.Leader) {
				for _, batch := range batches {
					results, err := l.RunObserved(context.Background(), batch, opts, func(cluster.TaskResult) { observed++ })
					if err != nil || len(results) != len(batch) {
						b.Fatalf("%d results for %d tasks, error %v", len(results), len(batch), err)
					}
				}
			}

			direct, _ := benchCluster(b, f, false)
			run(direct) // builds the workers' solvers
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(direct)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			reportPerTask(b, &before, &after, len(tasks))
			if observed != (b.N+1)*len(tasks) {
				b.Fatalf("the observer saw %d results of %d", observed, (b.N+1)*len(tasks))
			}
			if size != len(tasks) {
				return
			}

			counted, relay := benchCluster(b, f, true)
			run(counted)
			out, in := relay.toWorkers.Load(), relay.toLeader.Load()
			run(counted)
			b.ReportMetric(float64(relay.toWorkers.Load()-out)/float64(len(tasks)), "wire-B/task-out")
			b.ReportMetric(float64(relay.toLeader.Load()-in)/float64(len(tasks)), "wire-B/task-in")
		})
	}
}

// BenchmarkInprocDispatch is the same measurement for the in-process
// backend: the same subproblems on a 2-worker Inproc with an observer, as a
// runner's evaluation has, in the same two batch sizes.
func BenchmarkInprocDispatch(b *testing.B) {
	f, tasks := biviumPropagationTasks(b, 2500)
	opts := cluster.BatchOptions{CostMetric: solver.CostPropagations}
	for _, size := range []int{25, 2500} {
		b.Run(fmt.Sprintf("batch-%d", size), func(b *testing.B) {
			tr := cluster.NewInproc(f, 2, solver.Options{})
			batches := batchesOf(tasks, size)
			observed := 0
			run := func() {
				for _, batch := range batches {
					results, err := tr.RunObserved(context.Background(), batch, opts, func(cluster.TaskResult) { observed++ })
					if err != nil || len(results) != len(batch) {
						b.Fatalf("%d results for %d tasks, error %v", len(results), len(batch), err)
					}
				}
			}
			run() // builds the workers' solvers
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			reportPerTask(b, &before, &after, len(tasks))
			if observed != (b.N+1)*len(tasks) {
				b.Fatalf("the observer saw %d results of %d", observed, (b.N+1)*len(tasks))
			}
		})
	}
}

// TestDispatchAllocsPerTask pins what the borrowed activity vectors buy: a
// warm 2500-task pristine batch with an observer allocates next to nothing a
// task in process (the batch's own slices) and, over loopback with leader and
// workers in this process, less than the two vectors a result used to cost on
// either side — by count, not by clock.  Lent a results array, as a runner's
// evaluation lends one, the same batch allocates a few bytes a task: what is
// left once the results array, about 200 bytes a task, is the caller's.
func TestDispatchAllocsPerTask(t *testing.T) {
	f, tasks := biviumPropagationTasks(t, 2500)
	opts := cluster.BatchOptions{CostMetric: solver.CostPropagations, Steal: true, Speculate: true}
	leader, _ := benchCluster(t, f, false)
	for name, tc := range map[string]struct {
		tr        cluster.ObservedTransport
		limit     float64 // allocations a task
		lentBytes float64 // bytes a task, lent a results array
	}{
		"inproc":   {cluster.NewInproc(f, 2, solver.Options{}), 0.1, 16},
		"loopback": {leader, 2, 32},
	} {
		lent := opts
		lent.Results = make([]cluster.TaskResult, 0, len(tasks))
		for _, opts := range []cluster.BatchOptions{opts, lent} {
			leg := name
			if opts.Results != nil {
				leg += ", lent"
			}
			observed, runs := 0, 0
			run := func() {
				runs++
				results, err := tc.tr.RunObserved(context.Background(), tasks, opts, func(cluster.TaskResult) { observed++ })
				if err != nil || len(results) != len(tasks) {
					t.Fatalf("%s: %d results for %d tasks, error %v", leg, len(results), len(tasks), err)
				}
			}
			run() // builds the solvers, grows the buffers
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			perTask := float64(after.Mallocs-before.Mallocs) / float64(len(tasks))
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(tasks))
			t.Logf("%s: %.3f allocations and %.0f bytes a task", leg, perTask, bytes)
			if perTask > tc.limit {
				t.Errorf("%s: %.3f allocations a task in a warm batch of %d, want at most %v", leg, perTask, len(tasks), tc.limit)
			}
			if opts.Results != nil && bytes > tc.lentBytes {
				t.Errorf("%s: %.0f bytes a task in a warm batch of %d, want at most %v", leg, bytes, len(tasks), tc.lentBytes)
			}
			if observed != runs*len(tasks) {
				t.Errorf("%s: the observer saw %d results of %d", leg, observed, runs*len(tasks))
			}
		}
	}
}
