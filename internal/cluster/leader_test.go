package cluster

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/paper-repro/pdsat-go/internal/solver"
)

// TestWaitForWorkersWakesOnRegistration pins that WaitForWorkers is woken by
// the registration it waits for instead of finding it at its next poll: in
// each round two workers dial at once, and the wait returns within 10 ms of
// the second one's registration.  The median over the rounds is what is
// checked, so that one descheduled goroutine does not fail the test while a
// 25 ms poll (which finds a loopback registration at its first tick, 24 ms
// late) still does.
func TestWaitForWorkersWakesOnRegistration(t *testing.T) {
	const rounds = 9
	joined := make(chan time.Time, 2*rounds)
	leader, err := Listen("127.0.0.1:0", requeueFormula(), LeaderOptions{
		OnEvent: func(ev ClusterEvent) {
			if ev.Kind == WorkerJoined {
				joined <- time.Now()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var workers sync.WaitGroup
	defer workers.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	defer leader.Close()

	lags := make([]time.Duration, 0, rounds)
	for round := 1; round <= rounds; round++ {
		for i := 0; i < 2; i++ {
			workers.Add(1)
			go func() {
				defer workers.Done()
				_ = Serve(ctx, leader.Addr().String(), WorkerOptions{Capacity: 1})
			}()
		}
		if err := leader.WaitForWorkers(ctx, 2*round); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		returned := time.Now()
		<-joined
		lags = append(lags, returned.Sub(<-joined))
	}
	slices.Sort(lags)
	if median := lags[rounds/2]; median > 10*time.Millisecond {
		t.Fatalf("WaitForWorkers returned a median of %v after the registration it waited for (all rounds: %v)", median, lags)
	}
}

// TestWaitForWorkersWithoutWorkers checks the two exits that need no worker.
func TestWaitForWorkersWithoutWorkers(t *testing.T) {
	leader, err := Listen("127.0.0.1:0", requeueFormula(), LeaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := leader.WaitForWorkers(ctx, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("with an expired context: %v, want %v", err, context.DeadlineExceeded)
	}
	waiting := make(chan error, 1)
	go func() { waiting <- leader.WaitForWorkers(context.Background(), 1) }()
	leader.Close()
	if err := <-waiting; !errors.Is(err, ErrClosed) {
		t.Fatalf("after Close: %v, want %v", err, ErrClosed)
	}
}

// TestTargetDepth pins the dispatch depth's two rules: two tasks a slot, and
// above that, for a batch that can steal, one horizon of work at the mean
// solve time.
func TestTargetDepth(t *testing.T) {
	steal, pinned := &BatchOptions{Steal: true}, &BatchOptions{}
	for _, tc := range []struct {
		name     string
		capacity int
		opts     *BatchOptions
		mean     time.Duration
		want     int
	}{
		// 2 × capacity.
		{"no result yet", 1, steal, 0, 2},
		{"no result yet, four slots", 4, steal, 0, 8},
		{"tasks longer than the horizon", 1, steal, 11 * time.Millisecond, 2},
		{"tasks of one horizon", 4, steal, horizon, 8},
		{"tasks just under the horizon", 2, steal, horizon - 1, 4},
		{"without stealing", 1, pinned, 50 * time.Microsecond, 2},
		{"without stealing, four slots", 4, pinned, time.Microsecond, 8},
		{"a mean that is no time", 1, steal, -time.Second, 2},
		// capacity × min(⌊horizon / mean⌋, depthCap).
		{"50 µs tasks", 1, steal, 50 * time.Microsecond, 20},
		{"50 µs tasks, two slots", 2, steal, 50 * time.Microsecond, 40},
		{"70 µs tasks", 1, steal, 70 * time.Microsecond, 14},
		{"400 µs tasks", 1, steal, 400 * time.Microsecond, 2},
		{"at the cap", 1, steal, horizon / depthCap, depthCap},
		{"beyond the cap", 1, steal, time.Microsecond, depthCap},
		{"beyond the cap, three slots", 3, steal, time.Nanosecond, 3 * depthCap},
	} {
		if got := targetDepth(tc.capacity, tc.opts, tc.mean); got != tc.want {
			t.Errorf("%s: depth %d for %d slot(s), steal %v at a mean of %v, want %d",
				tc.name, got, tc.capacity, tc.opts.Steal, tc.mean, tc.want)
		}
	}
}

// holding returns a registered worker's leader-side state with tasks
// first..first+n-1 in flight.
func holding(id uint64, capacity, first, n int) *remoteWorker {
	rw := &remoteWorker{id: id, capacity: capacity, inflight: make(map[int]Task)}
	for i := first; i < first+n; i++ {
		rw.inflight[i] = Task{Index: i}
	}
	return rw
}

// TestDistributeInChunks drives the assignment without a socket: a free
// execution slot is filled whenever there is a task for it, a queue is
// topped up only once half its depth is free, and a worker gets what both
// rules give it as one chunk.
func TestDistributeInChunks(t *testing.T) {
	const mean = 50 * time.Microsecond // a depth of 20 a slot
	stealing := BatchOptions{Steal: true}
	tail := func(n int) []Task { return requeueTasks(1000)[1000-n:] }
	sizes := func(sends []sendChunk) (ids []uint64, ns []int) {
		for _, c := range sends {
			ids, ns = append(ids, c.rw.id), append(ns, len(c.tasks))
		}
		return ids, ns
	}
	for _, tc := range []struct {
		name    string
		opts    BatchOptions
		mean    time.Duration
		pending int
		ws      []*remoteWorker
		wantTo  []uint64
		wantN   []int
	}{
		{"a batch of 25 leaves in two frames", stealing, mean, 25,
			[]*remoteWorker{holding(1, 1, 0, 0), holding(2, 1, 0, 0)}, []uint64{1, 2}, []int{20, 5}},
		{"before any result the depth is the floor", stealing, 0, 25,
			[]*remoteWorker{holding(1, 1, 0, 0), holding(2, 1, 0, 0)}, []uint64{1, 2}, []int{2, 2}},
		{"a pinned batch stays at the floor", BatchOptions{}, mean, 25,
			[]*remoteWorker{holding(1, 1, 0, 0), holding(2, 1, 0, 0)}, []uint64{1, 2}, []int{2, 2}},
		{"free slots come first, across the cluster", stealing, mean, 2,
			[]*remoteWorker{holding(1, 1, 0, 0), holding(2, 1, 0, 0)}, []uint64{1, 2}, []int{1, 1}},
		{"no top-up while less than half the depth is free", stealing, mean, 500,
			[]*remoteWorker{holding(1, 1, 0, 11), holding(2, 1, 100, 20)}, nil, nil},
		{"a top-up of half the depth", stealing, mean, 500,
			[]*remoteWorker{holding(1, 1, 0, 10), holding(2, 1, 100, 11)}, []uint64{1}, []int{10}},
		{"at the floor a top-up is one task, as it was", stealing, 0, 500,
			[]*remoteWorker{holding(1, 1, 0, 1), holding(2, 1, 100, 2)}, []uint64{1}, []int{1}},
		{"at the floor a free slot brings half a queue with it, pinned or not", BatchOptions{}, mean, 500,
			[]*remoteWorker{holding(1, 4, 0, 3)}, []uint64{1}, []int{5}}, // depth 8: 4 spare after the slot, exactly half
		{"a free slot and a top-up are one chunk", stealing, 0, 500,
			[]*remoteWorker{holding(1, 4, 0, 3)}, []uint64{1}, []int{5}},
	} {
		b := &netBatch{opts: tc.opts, pending: tail(tc.pending)}
		before := len(b.pending)
		held := 0
		for _, rw := range tc.ws {
			held += len(rw.inflight)
		}
		to, ns := sizes(distributeLocked(b, tc.ws, nil, tc.mean))
		if !slices.Equal(to, tc.wantTo) || !slices.Equal(ns, tc.wantN) {
			t.Errorf("%s: chunks of %v tasks to workers %v, want %v to %v", tc.name, ns, to, tc.wantN, tc.wantTo)
			continue
		}
		sent := 0
		for _, n := range ns {
			sent += n
		}
		for _, rw := range tc.ws {
			held -= len(rw.inflight)
			if rw.planned != 0 {
				t.Errorf("%s: worker %d is left with %d planned tasks", tc.name, rw.id, rw.planned)
			}
		}
		if len(b.pending) != before-sent || -held != sent {
			t.Errorf("%s: %d tasks sent, %d left the queue, %d are newly in flight", tc.name, sent, before-len(b.pending), -held)
		}
	}
}

// TestTaskFramesAreFewOnLoopback counts frames end to end.  A scripted
// one-slot worker answers every task at once and reports a solve of 20 µs:
// 2500 such tasks reach it in fewer than a tenth as many task frames (a depth
// of 50, topped up by 25 or more), a batch that ran to its end is followed
// by no interrupt frame, and one that was aborted by exactly one.
func TestTaskFramesAreFewOnLoopback(t *testing.T) {
	leader, err := Listen("127.0.0.1:0", requeueFormula(), LeaderOptions{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	conn, w := register(t, leader.Addr().String(), "scripted", 1)
	defer conn.Close()
	var frames, tasks, interrupts atomic.Int64
	abortAt := make(chan chan struct{}, 1) // the next batch's abort, fired instead of an answer to its first chunk
	go func() {
		for {
			env, err := w.recv(0)
			if err != nil {
				return
			}
			switch env.Kind {
			case kindPing:
				_ = w.send(&envelope{Kind: kindPong})
			case kindInterrupt:
				interrupts.Add(1)
			case kindTasks:
				frames.Add(1)
				tasks.Add(int64(len(env.Queued)))
				select {
				case abort := <-abortAt:
					close(abort)
				default:
				}
				for _, task := range env.Queued {
					res := TaskResult{Index: task.index, Cost: 1, Status: solver.Unsat, Started: true, Stats: solver.Stats{SolveTime: 20 * time.Microsecond}}
					_ = w.queue(&envelope{Kind: kindResult, Batch: env.Batch, Result: &res})
				}
				_ = w.flush()
			}
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := leader.WaitForWorkers(ctx, 1); err != nil {
		t.Fatal(err)
	}
	batch := requeueTasks(2500)
	opts := BatchOptions{CostMetric: solver.CostPropagations, Steal: true, Speculate: true}
	for round := 1; round <= 2; round++ {
		results, err := leader.Run(ctx, batch, opts)
		if err != nil || len(results) != len(batch) {
			t.Fatalf("batch %d: %d results for %d tasks, error %v", round, len(results), len(batch), err)
		}
	}
	if f, n := frames.Load(), tasks.Load(); n != int64(2*len(batch)) || f >= n/10 {
		t.Fatalf("%d tasks reached the worker in %d task frames, want fewer than a tenth as many frames as tasks", n, f)
	}
	abort := make(chan struct{})
	abortAt <- abort
	results, err := leader.RunAbortable(ctx, batch, opts, nil, abort)
	if err != nil || len(results) != len(batch) {
		t.Fatalf("aborted batch: %d results for %d tasks, error %v", len(results), len(batch), err)
	}
	// The interrupt was sent before the aborted batch returned; one more
	// batch puts the frames the leader sent after it, if any, ahead of a
	// frame the worker is known to have read.
	if _, err := leader.Run(ctx, batch[:1], opts); err != nil {
		t.Fatal(err)
	}
	if n := interrupts.Load(); n != 1 {
		t.Fatalf("%d interrupt frames after two completed batches and an aborted one, want one", n)
	}
}

// TestLeaderClosedDuringABatch closes the leader while its worker is still
// answering.  RunDispatch returns ErrClosed with the results recorded so far,
// each observed exactly once and in the order returned; no observer call comes
// after the return; and the next call returns ErrClosed at once.
func TestLeaderClosedDuringABatch(t *testing.T) {
	leader, err := Listen("127.0.0.1:0", requeueFormula(), LeaderOptions{Heartbeat: 100 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var worker sync.WaitGroup // must not log into a finished test
	defer worker.Wait()
	worker.Add(1)
	go func() {
		defer worker.Done()
		_ = Serve(ctx, leader.Addr().String(), WorkerOptions{Capacity: 2, Name: "busy", Logf: t.Logf,
			TaskDelay: func(Task) time.Duration { return time.Millisecond }})
	}()
	if err := leader.WaitForWorkers(ctx, 1); err != nil {
		t.Fatal(err)
	}

	const closeAt = 20
	tasks := requeueTasks(400)
	var mu sync.Mutex
	var observed []int
	closing := make(chan struct{})
	observe := func(res TaskResult) {
		mu.Lock()
		defer mu.Unlock()
		if observed = append(observed, res.Index); len(observed) == closeAt {
			close(closing)
		}
	}
	closed := make(chan error, 1)
	go func() {
		<-closing
		closed <- leader.Close()
	}()
	results, _, err := leader.RunDispatch(ctx, tasks, propagationBatch, observe, nil)
	mu.Lock()
	atReturn := len(observed)
	mu.Unlock()
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("RunDispatch returned %v, want %v", err, ErrClosed)
	}
	// Close waits for the connection goroutines, the only ones that observe.
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if len(observed) != atReturn {
		t.Fatalf("%d observer calls came after RunDispatch returned", len(observed)-atReturn)
	}
	if len(results) < closeAt || len(results) == len(tasks) {
		t.Fatalf("%d results of %d tasks, want those recorded before the close", len(results), len(tasks))
	}
	returned := make([]int, len(results))
	once := make([]bool, len(tasks))
	for i, res := range results {
		if once[res.Index] {
			t.Fatalf("task %d returned twice", res.Index)
		}
		once[res.Index] = true
		returned[i] = res.Index
	}
	if !slices.Equal(observed, returned) {
		t.Fatalf("observed tasks %v, returned %v", observed, returned)
	}

	again, cancelAgain := context.WithTimeout(ctx, 5*time.Second)
	defer cancelAgain()
	if results, _, err := leader.RunDispatch(again, tasks, propagationBatch, observe, nil); !errors.Is(err, ErrClosed) || results != nil {
		t.Fatalf("after Close RunDispatch returned %d results and %v, want none and %v", len(results), err, ErrClosed)
	}
}
