package cluster

import (
	"context"
	"errors"
	"slices"
	"strings"
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
// late) still does.  Workers then counts the slots of the registered workers,
// before and after one of them leaves.
func TestWaitForWorkersWakesOnRegistration(t *testing.T) {
	const rounds = 9
	joined := make(chan time.Time, 2*rounds+1)
	lost := make(chan struct{}, 1)
	leader, err := Listen("127.0.0.1:0", requeueFormula(), LeaderOptions{
		OnEvent: func(ev ClusterEvent) {
			switch ev.Kind {
			case WorkerJoined:
				joined <- time.Now()
			case WorkerLost:
				select {
				case lost <- struct{}{}:
				default: // the leader's Close drops the rest
				}
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

	leaving, leave := context.WithCancel(ctx)
	workers.Add(1)
	go func() {
		defer workers.Done()
		_ = Serve(leaving, leader.Addr().String(), WorkerOptions{Capacity: 3})
	}()
	if err := leader.WaitForWorkers(ctx, 2*rounds+1); err != nil {
		t.Fatal(err)
	}
	if n := leader.Workers(); n != 2*rounds+3 {
		t.Fatalf("%d slots with %d one-slot workers and a three-slot one, want %d", n, 2*rounds, 2*rounds+3)
	}
	leave()
	<-lost
	if n := leader.Workers(); n != 2*rounds {
		t.Fatalf("%d slots after the three-slot worker left, want %d", n, 2*rounds)
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

// TestTargetDepth pins the dispatch depth's two rules: depthCap tasks a slot
// for a batch that can steal, two a slot for any other.
func TestTargetDepth(t *testing.T) {
	for _, tc := range []struct {
		capacity int
		opts     BatchOptions
		want     int
	}{
		{1, BatchOptions{Steal: true}, depthCap},
		{3, BatchOptions{Steal: true}, 3 * depthCap},
		{1, BatchOptions{}, 2},
		{4, BatchOptions{}, 8},
		{3, BatchOptions{Steal: true, Stop: StopOnSat}, 6},
	} {
		if got := targetDepth(tc.capacity, &tc.opts); got != tc.want {
			t.Errorf("depth %d for %d slot(s), %+v, want %d", got, tc.capacity, tc.opts, tc.want)
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
// topped up only once half its depth is free, the rest goes to the workers
// least loaded per slot, and a worker gets what these rules give it as one
// chunk.
func TestDistributeInChunks(t *testing.T) {
	stealing, pinned := BatchOptions{Steal: true}, BatchOptions{}
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
		pending int
		ws      []*remoteWorker
		wantTo  []uint64
		wantN   []int
	}{
		{"a batch of 25 leaves in two even frames", stealing, 25,
			[]*remoteWorker{holding(1, 1, 0, 0), holding(2, 1, 0, 0)}, []uint64{1, 2}, []int{13, 12}},
		{"a one-slot and a three-slot worker share 1:3", stealing, 400,
			[]*remoteWorker{holding(1, 1, 0, 0), holding(2, 3, 0, 0)}, []uint64{1, 2}, []int{100, 300}},
		{"a one-slot and a three-slot worker share 1:3, a small batch", stealing, 8,
			[]*remoteWorker{holding(1, 1, 0, 0), holding(2, 3, 0, 0)}, []uint64{1, 2}, []int{2, 6}},
		// The victim of a steal of 5 of its 9 queued tasks holds 5; every
		// task taken back goes to the drained worker, none back to the victim.
		{"after a steal the requeued tasks go to the drained worker", stealing, 5,
			[]*remoteWorker{holding(1, 1, 0, 5), holding(2, 1, 0, 0)}, []uint64{2}, []int{5}},
		{"the least loaded worker is filled first", stealing, 50,
			[]*remoteWorker{holding(1, 1, 0, 100), holding(2, 1, 100, 10)}, []uint64{2}, []int{50}},
		{"no queue grows beyond its depth", stealing, 1000,
			[]*remoteWorker{holding(1, 1, 0, 0), holding(2, 1, 0, 0)}, []uint64{1, 2}, []int{depthCap, depthCap}},
		{"a pinned batch stays at the floor", pinned, 25,
			[]*remoteWorker{holding(1, 1, 0, 0), holding(2, 1, 0, 0)}, []uint64{1, 2}, []int{2, 2}},
		{"a batch that stops on SAT stays at the floor", BatchOptions{Steal: true, Stop: StopOnSat}, 25,
			[]*remoteWorker{holding(1, 1, 0, 0), holding(2, 3, 0, 0)}, []uint64{1, 2}, []int{2, 6}},
		{"free slots come first, across the cluster", stealing, 2,
			[]*remoteWorker{holding(1, 1, 0, 0), holding(2, 1, 0, 0)}, []uint64{1, 2}, []int{1, 1}},
		{"no top-up while less than half the depth is free", stealing, 500,
			[]*remoteWorker{holding(1, 1, 0, depthCap/2+1), holding(2, 1, 200, 200)}, nil, nil},
		{"a top-up of half the depth", stealing, 500,
			[]*remoteWorker{holding(1, 1, 0, depthCap/2), holding(2, 1, 200, depthCap/2+1)}, []uint64{1}, []int{depthCap / 2}},
		{"at the floor a top-up is one task, as it was", pinned, 500,
			[]*remoteWorker{holding(1, 1, 0, 1), holding(2, 1, 100, 2)}, []uint64{1}, []int{1}},
		{"at the floor a free slot brings half a queue with it", pinned, 500,
			[]*remoteWorker{holding(1, 4, 0, 3)}, []uint64{1}, []int{5}}, // depth 8: 4 spare after the slot, exactly half
		{"a free slot and a top-up are one chunk", stealing, 500,
			[]*remoteWorker{holding(1, 4, 0, 3)}, []uint64{1}, []int{500}},
	} {
		b := &netBatch{opts: tc.opts, pending: tail(tc.pending)}
		before := len(b.pending)
		held := 0
		for _, rw := range tc.ws {
			held += len(rw.inflight)
		}
		to, ns := sizes(distributeLocked(b, tc.ws, nil))
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

	// The water-fill is worked out once a call, and allocates nothing.
	ws := []*remoteWorker{holding(1, 1, 0, 0), holding(2, 3, 0, 9)}
	if allocs := testing.AllocsPerRun(100, func() {
		fillLocked(ws, depthCap, 400)
		ws[0].planned, ws[1].planned = 0, 0
	}); allocs != 0 {
		t.Errorf("the water-fill allocates %v times a call", allocs)
	}
}

// TestStealShareStaysOnTheThieves plans a steal from the most backlogged
// worker, gives the asked-for tasks back as a victim does, and distributes
// them: the count is the idle slots' share of the victim's tasks, ⌈backlog/2⌉
// between two one-slot workers, and every task taken back goes to a drained
// worker, none back to the victim (registered first, so it would win the
// water-fill's ties).
func TestStealShareStaysOnTheThieves(t *testing.T) {
	for _, tc := range []struct {
		name            string
		victimCap, held int
		thieves         []int // execution slots of each drained worker
		wantCount       int
	}{
		{"two one-slot workers", 1, 10, []int{1}, 5},
		{"two one-slot workers, an odd backlog", 1, 9, []int{1}, 4},
		{"a one-slot thief, a three-slot victim", 3, 23, []int{1}, 5},
		{"a one-slot thief, a three-slot victim, a divisible share", 3, 24, []int{1}, 6},
		{"a one-slot thief, an eight-slot victim", 8, 108, []int{1}, 12},
		{"a three-slot thief, a one-slot victim", 1, 10, []int{3}, 7},
		{"two one-slot thieves", 2, 9, []int{1, 1}, 4},
		{"a backlog of one", 3, 4, []int{1}, 1},
	} {
		victim := holding(1, tc.victimCap, 0, tc.held)
		ws := []*remoteWorker{victim}
		for i, c := range tc.thieves {
			ws = append(ws, holding(uint64(i+2), c, 0, 0))
		}
		from, count := planStealLocked(ws)
		if from != victim || count != tc.wantCount {
			t.Errorf("%s: a steal of %d (from the victim: %v), want %d from the victim", tc.name, count, from == victim, tc.wantCount)
			continue
		}
		b := &netBatch{opts: BatchOptions{Steal: true}}
		for i := tc.held - count; i < tc.held; i++ {
			b.pending = append(b.pending, victim.inflight[i])
			delete(victim.inflight, i)
		}
		got := 0
		for _, c := range distributeLocked(b, ws, nil) {
			if c.rw == victim {
				t.Errorf("%s: %d stolen tasks went back to the victim", tc.name, len(c.tasks))
			}
			got += len(c.tasks)
		}
		if got != count || len(b.pending) != 0 {
			t.Errorf("%s: %d of %d stolen tasks sent, %d left pending", tc.name, got, count, len(b.pending))
		}
	}
}

// TestTaskFramesAreFewOnLoopback counts frames end to end.  A scripted
// one-slot worker answers every task at once: 2500 tasks reach it in fewer
// than a tenth as many task frames (a depth of depthCap, topped up by half of
// it or more), a batch that ran to its end is followed by no interrupt frame,
// and one that was aborted by exactly one.
func TestTaskFramesAreFewOnLoopback(t *testing.T) {
	leader, err := Listen("127.0.0.1:0", requeueFormula(), LeaderOptions{})
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
	leader, err := Listen("127.0.0.1:0", requeueFormula(), LeaderOptions{Heartbeat: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var worker sync.WaitGroup // must not outlive the test
	defer worker.Wait()
	worker.Add(1)
	go func() {
		defer worker.Done()
		_ = Serve(ctx, leader.Addr().String(), WorkerOptions{Capacity: 2, Name: "busy",
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

// TestObserverPanicFailsTheBatch: a batch observer that panics fails the
// batch on both backends, not the process.  It panics on the third result, or
// on the first placeholder of a batch whose abort fired before the call (the
// leader records those in cancelBatch, with its lock held).  Either way the
// call returns an error naming the observer's panic, the observer is not
// called again, and the transport serves the next batch: the leader is not
// left locked.
func TestObserverPanicFailsTheBatch(t *testing.T) {
	f := requeueFormula()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	leader, err := Listen("127.0.0.1:0", f, LeaderOptions{Heartbeat: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var worker sync.WaitGroup
	defer worker.Wait()
	defer leader.Close()
	worker.Add(1)
	go func() {
		defer worker.Done()
		_ = Serve(ctx, leader.Addr().String(), WorkerOptions{Capacity: 2, Name: "w"})
	}()
	if err := leader.WaitForWorkers(ctx, 1); err != nil {
		t.Fatal(err)
	}
	tasks := requeueTasks(32)
	for _, tr := range []AbortableTransport{NewInproc(f, 2, solver.DefaultOptions()), leader} {
		for _, aborted := range []bool{false, true} {
			abort := make(chan struct{})
			if aborted {
				close(abort)
			}
			seen, late := 0, 0
			panicked := false
			_, err := tr.RunAbortable(ctx, tasks, propagationBatch, func(res TaskResult) {
				if seen++; panicked {
					late++
				}
				if aborted && !res.Started || !aborted && seen == 3 {
					panicked = true
					panic("boom")
				}
			}, abort)
			if err == nil || IsInterruption(err) || !strings.Contains(err.Error(), "observer panicked") || !strings.Contains(err.Error(), "boom") {
				t.Errorf("%T, aborted %v: error %v, want one naming the observer's panic", tr, aborted, err)
			}
			if !panicked || late != 0 {
				t.Errorf("%T, aborted %v: panicked %v, then %d observer calls", tr, aborted, panicked, late)
			}
			if results, err := tr.Run(ctx, tasks, propagationBatch); err != nil || len(results) != len(tasks) {
				t.Fatalf("%T: the next batch returned %d results and %v", tr, len(results), err)
			}
		}
	}
}
