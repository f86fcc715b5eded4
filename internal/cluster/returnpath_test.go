package cluster

import (
	"context"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/solver"
)

// The return path's tests count writes and order events; none of them reads
// a clock to decide.

// recordConn is a scriptConn that keeps every Write apart and announces it.
type recordConn struct {
	scriptConn
	mu     sync.Mutex
	writes [][]byte
	// wrote gets a token per Write while it has room; a test waits for one
	// write or two, never for hundreds.
	wrote chan struct{}
}

func newRecordConn() *recordConn { return &recordConn{wrote: make(chan struct{}, 64)} }

func (c *recordConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, slices.Clone(p))
	c.mu.Unlock()
	select {
	case c.wrote <- struct{}{}:
	default:
	}
	return len(p), nil
}

func (c *recordConn) written() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.writes)
}

// awaitWrite waits for the next Write.
func (c *recordConn) awaitWrite(t *testing.T) {
	t.Helper()
	select {
	case <-c.wrote:
	case <-time.After(10 * time.Second):
		t.Fatal("nothing was written")
	}
}

// decodeFrames decodes a byte stream as the peer would, a leader of
// requeueFormula, into envelopes that own their results.
func decodeFrames(t *testing.T, stream []byte) []envelope {
	t.Helper()
	w := newWire(&scriptConn{in: stream})
	w.numVars = requeueFormula().NumVars
	var out []envelope
	for {
		env, err := w.recv(time.Second)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("frame %d of the stream: %v", len(out), err)
		}
		e := *env
		if env.Result != nil {
			res := *env.Result
			e.Result = &res
		}
		out = append(out, e)
	}
}

// holdRate makes w find that no time has passed since its last write, until
// its next one: queue then leaves its frame pending unless flushBytes are.
func holdRate(w *wire) {
	w.mu.Lock()
	w.lastFlush = time.Now().Add(time.Hour)
	w.mu.Unlock()
}

// holdFlushes is holdRate with the backstop timer out of the way as well:
// until w's next write only a send, a flush or flushBytes pending write.
func holdFlushes(w *wire) {
	holdRate(w)
	w.mu.Lock()
	w.armed = true
	w.mu.Unlock()
}

func resultFrame(batch uint64, index int) *envelope {
	return &envelope{Kind: kindResult, Batch: batch, Result: &TaskResult{Index: index, Cost: float64(index), Status: solver.Unsat, Started: true}}
}

// checkResults fails unless envs are the results of tasks first..first+n-1
// in that order.
func checkResults(t *testing.T, envs []envelope, first, n int) {
	t.Helper()
	if len(envs) != n {
		t.Fatalf("%d frames, want %d results", len(envs), n)
	}
	for i, env := range envs {
		if env.Kind != kindResult || env.Result.Index != first+i {
			t.Fatalf("frame %d is %+v, want the result of task %d", i, env, first+i)
		}
	}
}

// TestWireQueueSharesAWrite: queued frames leave together, in the order they
// were queued, and a send writes them ahead of its own frame in the same
// Write — a pong, or a steal's acknowledgement, never overtakes a result.
func TestWireQueueSharesAWrite(t *testing.T) {
	const n = 40
	conn := newRecordConn()
	w := newWire(conn)

	// The first frame after a pause leaves at once.
	if err := w.queue(resultFrame(1, 0)); err != nil {
		t.Fatal(err)
	}
	if got := conn.written(); len(got) != 1 {
		t.Fatalf("%d writes after the first queued frame, want it written at once", len(got))
	}

	holdFlushes(w)
	for i := 1; i <= n; i++ {
		if err := w.queue(resultFrame(1, i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := conn.written(); len(got) != 1 {
		t.Fatalf("%d writes while %d frames were queued within the flush interval, want none", len(got)-1, n)
	}
	if err := w.send(&envelope{Kind: kindPong}); err != nil {
		t.Fatal(err)
	}
	writes := conn.written()
	if len(writes) != 2 {
		t.Fatalf("%d queued frames and a send left in %d writes, want one", n, len(writes)-1)
	}
	envs := decodeFrames(t, writes[1])
	checkResults(t, envs[:len(envs)-1], 1, n)
	if last := envs[len(envs)-1]; last.Kind != kindPong {
		t.Fatalf("the last frame of the write is %+v, want the pong that was sent last", last)
	}

	// flushBytes pending are written whatever the clock says, and not before.
	holdFlushes(w)
	frame := len(mustFrame(t, resultFrame(1, 0)))
	for i := 0; len(conn.written()) == 2; i++ {
		if i > 2*flushBytes/frame {
			t.Fatalf("%d frames of %d bytes queued and nothing written", i, frame)
		}
		if err := w.queue(resultFrame(2, i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(conn.written()[2]); got < flushBytes || got >= flushBytes+2*frame {
		t.Fatalf("a write of %d bytes, want the first frames to reach %d", got, flushBytes)
	}
}

// TestWireBackstopWritesWhatWasLeft: a frame queued and left pending — the
// slot that queued it has gone into a long solve — is written by the timer.
func TestWireBackstopWritesWhatWasLeft(t *testing.T) {
	conn := newRecordConn()
	w := newWire(conn)
	holdRate(w)
	for i := 0; i < 3; i++ {
		if err := w.queue(resultFrame(1, i)); err != nil {
			t.Fatal(err)
		}
	}
	conn.awaitWrite(t)
	writes := conn.written()
	if len(writes) != 1 {
		t.Fatalf("%d writes, want one", len(writes))
	}
	checkResults(t, decodeFrames(t, writes[0]), 0, 3)
}

// slotBatch starts a one-slot workerBatch over a recording connection whose
// flushes are held, so that what is written when is decided by the slot alone.
func slotBatch(t *testing.T, parent context.Context, delay func(Task) time.Duration) (*workerBatch, *wire, *recordConn) {
	t.Helper()
	conn := newRecordConn()
	w := newWire(conn)
	holdFlushes(w)
	exec := NewInproc(requeueFormula(), 1, solver.DefaultOptions())
	b := newWorkerBatch(parent, 1, BatchOptions{CostMetric: solver.CostPropagations}, exec, w, newTaskQueue(), delay)
	t.Cleanup(b.stop)
	return b, w, conn
}

// TestSlotFlushesWhenItsQueueRunsDry: results wait for one another only while
// there is more to solve.  A slot that finds its queue empty writes what is
// pending before it waits — the tail of a batch is not held back.
func TestSlotFlushesWhenItsQueueRunsDry(t *testing.T) {
	b, _, conn := slotBatch(t, context.Background(), nil)
	b.q.push(queued(t, requeueTasks(5)))
	conn.awaitWrite(t)
	writes := conn.written()
	if len(writes) != 1 {
		t.Fatalf("%d writes for a chunk of five tasks, want one", len(writes))
	}
	envs := decodeFrames(t, writes[0])
	checkResults(t, envs, 0, 5)
	for _, env := range envs {
		if !env.Result.Started {
			t.Fatalf("task %d was not solved", env.Result.Index)
		}
	}
}

// TestSlotGoingDownWritesNothing: once the worker's own context is cancelled
// its slots neither send the task in hand nor flush what is pending.  The
// connection is about to drop, and the leader requeues everything it has no
// answer for; nothing is answered twice.
func TestSlotGoingDownWritesNothing(t *testing.T) {
	parent, kill := context.WithCancel(context.Background())
	defer kill()
	b, w, conn := slotBatch(t, parent, func(task Task) time.Duration {
		if task.Index == 2 {
			kill()
		}
		return 0
	})
	b.q.push(queued(t, requeueTasks(5)))
	b.wg.Wait() // the slot leaves on its own, inside task 2
	if writes := conn.written(); len(writes) != 0 {
		t.Fatalf("the slot of a worker going down wrote %d time(s): %+v", len(writes), decodeFrames(t, slices.Concat(writes...)))
	}
	w.mu.Lock()
	pending := slices.Clone(w.wbuf)
	w.mu.Unlock()
	checkResults(t, decodeFrames(t, pending), 0, 2) // what it held, it still holds
}

// TestInterruptDrainsADeepQueueInOneWrite: an interrupt with hundreds of
// tasks queued answers every one of them with a placeholder, once, and the
// placeholders share a write instead of taking one each.
func TestInterruptDrainsADeepQueueInOneWrite(t *testing.T) {
	const n = 300
	started := make(chan struct{})
	b, _, conn := slotBatch(t, context.Background(), func(task Task) time.Duration {
		if task.Index == 0 {
			close(started)
			return time.Minute // cut short by the interrupt
		}
		return 0
	})
	b.q.push(queued(t, requeueTasks(n)))
	<-started
	b.stop() // what kindInterrupt does
	writes := conn.written()
	if len(writes) != 1 {
		t.Fatalf("%d placeholders left in %d writes, want one", n, len(writes))
	}
	envs := decodeFrames(t, writes[0])
	checkResults(t, envs, 0, n)
	for _, env := range envs {
		if env.Result.Started {
			t.Fatalf("task %d of the interrupted batch was started", env.Result.Index)
		}
	}
}

// TestResultIsNoHostageOfTheNextTask: a result that was held back does not
// wait for the slot's next task to end.  On a one-slot worker with a deep
// queue, every eighth task refuses to start until the observer has seen the
// result of the task before it; that result is pending on the worker unless
// a write happened to take it — one in twenty does — and only the backstop
// timer can send it.
func TestResultIsNoHostageOfTheNextTask(t *testing.T) {
	const n = 64
	seen := make([]chan struct{}, n)
	for i := range seen {
		seen[i] = make(chan struct{})
	}
	var hostages atomic.Int32
	// No ping inside the test: the pong would carry the held results along.
	leader, err := Listen("127.0.0.1:0", requeueFormula(), LeaderOptions{Heartbeat: time.Minute, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	var served sync.WaitGroup
	defer served.Wait()
	defer cancel()
	defer leader.Close()
	served.Add(1)
	go func() {
		defer served.Done()
		_ = Serve(ctx, leader.Addr().String(), WorkerOptions{Capacity: 1, Name: "solo", TaskDelay: func(task Task) time.Duration {
			if task.Index%8 == 0 && task.Index > 0 {
				select {
				case <-seen[task.Index-1]:
				case <-time.After(5 * time.Second):
					hostages.Add(1)
				}
			}
			return 0
		}})
	}()
	if err := leader.WaitForWorkers(ctx, 1); err != nil {
		t.Fatal(err)
	}
	tasks := requeueTasks(n)
	opts := BatchOptions{CostMetric: solver.CostPropagations, Steal: true}
	results, err := leader.RunObserved(ctx, tasks, opts, func(res TaskResult) { close(seen[res.Index]) })
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstInproc(t, tasks, opts, results)
	if h := hostages.Load(); h != 0 {
		t.Fatalf("%d result(s) reached the observer only after the task behind them gave up waiting", h)
	}
}

// TestWorkerKilledWithResultsPending: a worker goes down in the middle of a
// deep queue, with answers it has not written yet.  Whatever it had written
// counts, everything else is requeued, and the survivor finishes the batch:
// every task solved, once, with the in-process result.
func TestWorkerKilledWithResultsPending(t *testing.T) {
	leader, err := Listen("127.0.0.1:0", requeueFormula(), LeaderOptions{Heartbeat: 100 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	var served sync.WaitGroup
	defer served.Wait()
	defer cancel()
	defer leader.Close()
	addr := leader.Addr().String()

	// The doomed worker registers first and is handed the head of the batch
	// and, after its first result, a deep queue.  It goes down inside its
	// tenth task.
	doomedCtx, kill := context.WithCancel(ctx)
	var started atomic.Int32
	served.Add(2)
	go func() {
		defer served.Done()
		_ = Serve(doomedCtx, addr, WorkerOptions{Capacity: 1, Name: "doomed", Logf: t.Logf, TaskDelay: func(Task) time.Duration {
			if started.Add(1) < 10 {
				return 0
			}
			kill()
			return time.Minute
		}})
	}()
	if err := leader.WaitForWorkers(ctx, 1); err != nil {
		t.Fatal(err)
	}
	// The survivor holds its tasks until then, so that it cannot finish the
	// batch before the doomed worker reaches a tenth task.
	go func() {
		defer served.Done()
		_ = Serve(ctx, addr, WorkerOptions{Capacity: 1, Name: "survivor", Logf: t.Logf, TaskDelay: func(Task) time.Duration {
			<-doomedCtx.Done()
			return 0
		}})
	}()
	if err := leader.WaitForWorkers(ctx, 2); err != nil {
		t.Fatal(err)
	}
	tasks := requeueTasks(200)
	opts := BatchOptions{CostMetric: solver.CostPropagations, Steal: true, Speculate: true}
	results, err := leader.Run(ctx, tasks, opts)
	if err != nil {
		t.Fatal(err)
	}
	if started.Load() < 10 {
		t.Fatalf("the doomed worker started %d tasks: it never went down mid-batch", started.Load())
	}
	checkAgainstInproc(t, tasks, opts, results)
}

// TestLateChunkLeavesTheQueuedTasks: a chunk of a batch the worker was told
// to abandon may still arrive after the interrupt, and it may arrive between
// two chunks of the live batch.  It is answered with placeholders and touches
// nothing of the live batch: the tasks queued before it and after it are
// solved under the assumptions their frames spelled, with the in-process
// results.  The frames are written by hand, the one slot is held inside the
// live batch's first task until all of them have been read, and each task
// reports the assumptions it is solved under.
func TestLateChunkLeavesTheQueuedTasks(t *testing.T) {
	f := requeueFormula()
	live := make([]Task, 8)
	for i := range live {
		live[i] = Task{Index: i, Assumptions: []cnf.Lit{cnf.NewLit(cnf.Var(1+i), i%2 == 0), cnf.NewLit(cnf.Var(12+i), i%3 == 0)}}
	}
	late := make([]Task, 4)
	for i := range late {
		late[i] = Task{Index: i, Assumptions: []cnf.Lit{-24, 23, -22, 21, cnf.Lit(-5 - i), 7}}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	release := make(chan struct{})
	var mu sync.Mutex
	solvedUnder := make(map[int][]cnf.Lit)
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = Serve(ctx, ln.Addr().String(), WorkerOptions{Capacity: 1, Name: "arena", TaskDelay: func(task Task) time.Duration {
			if task.Index == 0 {
				<-release
			}
			mu.Lock()
			solvedUnder[task.Index] = slices.Clone(task.Assumptions)
			mu.Unlock()
			return 0
		}})
	}()
	defer func() {
		cancel()
		<-served
	}()

	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	w := newWire(conn)
	defer w.close()
	hello, err := w.recv(handshakeTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkHello(hello); err != nil {
		t.Fatal(err)
	}
	w.numVars = f.NumVars
	opts := BatchOptions{CostMetric: solver.CostPropagations}
	for _, env := range []*envelope{
		{Kind: kindWelcome, Formula: f, Heartbeat: time.Minute},
		{Kind: kindInterrupt, Batch: 1},
		{Kind: kindTasks, Batch: 2, Opts: &opts, Tasks: live[:5]},
		{Kind: kindTasks, Batch: 1, Opts: &opts, Tasks: late},
		{Kind: kindTasks, Batch: 2, Opts: &opts, Tasks: live[5:]},
		{Kind: kindPing},
	} {
		if err := w.send(env); err != nil {
			t.Fatal(err)
		}
	}

	// The pong follows the late chunk's placeholders, and the slot has answered
	// nothing of the live batch yet.
	var results []TaskResult
	placeholders := 0
	for released := false; len(results) < len(live); {
		env, err := w.recv(10 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case env.Kind == kindPong && !released:
			if placeholders != len(late) || len(results) != 0 {
				t.Fatalf("before the pong: %d placeholders of the late chunk and %d results of the live batch, want %d and 0", placeholders, len(results), len(late))
			}
			close(release)
			released = true
		case env.Kind == kindResult && env.Batch == 1 && !env.Result.Started:
			placeholders++
		case env.Kind == kindResult && env.Batch == 2:
			results = append(results, *env.Result)
		default:
			t.Fatalf("unexpected frame %+v", env)
		}
	}
	checkAgainstInproc(t, live, opts, results)
	mu.Lock()
	defer mu.Unlock()
	for _, task := range live {
		if got := solvedUnder[task.Index]; !slices.Equal(got, task.Assumptions) {
			t.Errorf("task %d was solved under %v, its frame said %v", task.Index, got, task.Assumptions)
		}
	}
}
