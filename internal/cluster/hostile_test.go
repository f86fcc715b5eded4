package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/solver"
)

// dialWorker dials the leader and registers a fake worker by hand.  It
// reports a failure with t.Errorf and returns nil, so that a fake worker's
// own goroutine may call it.
func dialWorker(t *testing.T, addr, name string, capacity int) *wire {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		t.Errorf("%s: dial: %v", name, err)
		return nil
	}
	w := newWire(conn)
	if err := w.send(helloFor(name, capacity)); err != nil {
		t.Errorf("%s: hello: %v", name, err)
		w.close()
		return nil
	}
	if env, err := w.recv(handshakeTimeout); err != nil || env.Kind != kindWelcome {
		t.Errorf("%s: welcome: %+v, %v", name, env, err)
		w.close()
		return nil
	}
	return w
}

// register is dialWorker on the test's goroutine, which a failure stops.
func register(t *testing.T, addr, name string, capacity int) (net.Conn, *wire) {
	t.Helper()
	w := dialWorker(t, addr, name, capacity)
	if w == nil {
		t.FailNow()
	}
	return w.conn, w
}

// nextFrame answers the leader's pings until it sends anything else, which it
// returns.
func nextFrame(w *wire, timeout time.Duration) (*envelope, error) {
	for {
		env, err := w.recv(timeout)
		if err != nil || env.Kind != kindPing {
			return env, err
		}
		if err := w.send(&envelope{Kind: kindPong}); err != nil {
			return nil, fmt.Errorf("pong: %w", err)
		}
	}
}

// outcome is what a batch run in the background returned.
type outcome struct {
	results []TaskResult
	stats   DispatchStats
	err     error
}

// inBackground runs a batch on the leader on a goroutine of its own and
// returns where its outcome lands.
func inBackground(ctx context.Context, l *Leader, tasks []Task, opts BatchOptions, observe func(TaskResult), abort <-chan struct{}) <-chan outcome {
	done := make(chan outcome, 1)
	go func() {
		results, stats, err := l.RunDispatch(ctx, tasks, opts, observe, abort)
		done <- outcome{results, stats, err}
	}()
	return done
}

// firstChunk answers pings until the leader sends tasks and returns that
// frame's envelope.
func firstChunk(t *testing.T, w *wire) *envelope {
	t.Helper()
	for {
		env, err := nextFrame(w, 10*time.Second)
		if err != nil {
			t.Fatalf("waiting for tasks: %v", err)
		}
		if env.Kind == kindTasks {
			return env
		}
	}
}

// untilClosed reads and discards until the connection ends, and reports
// whether it was the peer that ended it.
func untilClosed(conn net.Conn) bool {
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 4096)
	for {
		if _, err := conn.Read(buf); err != nil {
			var timeout net.Error
			return !(errors.As(err, &timeout) && timeout.Timeout())
		}
	}
}

// leaderGoroutines counts the goroutines running a Leader method.
func leaderGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "cluster.(*Leader).") {
			n++
		}
	}
	return n
}

// checkAgainstInproc fails unless results holds exactly one completed solve
// per task — nothing lost, aborted, skipped or answered twice — with the
// cost and status the in-process transport computes.
func checkAgainstInproc(t *testing.T, tasks []Task, opts BatchOptions, results []TaskResult) {
	t.Helper()
	want, err := NewInproc(requeueFormula(), 2, solver.DefaultOptions()).Run(context.Background(), tasks, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkOnePerIndex(t, results, len(tasks))
	wantByIdx := make([]TaskResult, len(tasks))
	for _, res := range want {
		wantByIdx[res.Index] = res
	}
	for _, res := range results {
		if w := wantByIdx[res.Index]; !res.Started || res.Cancelled || res.Cost != w.Cost || res.Status != w.Status {
			t.Fatalf("task %d: %+v, in process %+v", res.Index, res, w)
		}
	}
}

// TestHostileWorker registers a worker that takes its first chunk of tasks
// and then breaks the protocol, or one that never spoke it.  Whatever it
// does, the leader drops that one connection — without a panic and without
// allocating what the peer merely announces —, requeues what the worker
// held, finishes the batch on the honest worker with every task solved
// exactly once, and still shuts down.
func TestHostileWorker(t *testing.T) {
	gobHello, err := os.ReadFile("testdata/hello_v5.gob") // what a version-5 worker sends first
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		// unregistered peers attack in place of the hello.
		unregistered bool
		attack       func(t *testing.T, conn net.Conn, batch uint64)
	}{
		{"closes mid-frame", false, func(t *testing.T, conn net.Conn, batch uint64) {
			frame := mustFrame(t, &envelope{Kind: kindResult, Batch: batch, Result: &TaskResult{Index: 0, Started: true}})
			conn.Write(frame[:len(frame)-3])
			conn.Close()
		}},
		{"announces 1 GiB and sends nothing", false, func(t *testing.T, conn net.Conn, batch uint64) {
			conn.Write(binary.BigEndian.AppendUint32(nil, maxFrame))
		}},
		{"announces more than a frame may hold", false, func(t *testing.T, conn net.Conn, batch uint64) {
			conn.Write(binary.BigEndian.AppendUint32(nil, maxFrame+1))
		}},
		{"counts more elements than the frame has", false, func(t *testing.T, conn net.Conn, batch uint64) {
			// A result whose model claims 2^30 values, in a frame of a dozen bytes.
			body := []byte{byte(kindResult)}
			body = binary.AppendUvarint(body, batch)
			body = append(body, 0, 0, 0, 1) // index, cost, status, flags
			body = binary.AppendUvarint(body, 1<<30)
			conn.Write(append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...))
		}},
		{"speaks version 5's gob", true, func(t *testing.T, conn net.Conn, batch uint64) {
			conn.Write(gobHello)
		}},
		// Answers for a task it holds, fit to poison what they would be summed
		// into: a NaN makes every later comparison with the sum false.
		{"reports a NaN cost", false, func(t *testing.T, conn net.Conn, batch uint64) {
			conn.Write(mustFrame(t, &envelope{Kind: kindResult, Batch: batch, Result: &TaskResult{Index: 0, Cost: math.NaN(), Status: solver.Unsat, Started: true}}))
		}},
		{"reports a negative cost", false, func(t *testing.T, conn net.Conn, batch uint64) {
			conn.Write(mustFrame(t, &envelope{Kind: kindResult, Batch: batch, Result: &TaskResult{Index: 0, Cost: -1e18, Status: solver.Unsat, Started: true}}))
		}},
		{"reports activity of a variable the formula lacks", false, func(t *testing.T, conn net.Conn, batch uint64) {
			act := solver.SparseActivities{Vars: []cnf.Var{3, cnf.Var(requeueFormula().NumVars + 1)}, Acts: []float64{1, 1}}
			conn.Write(mustFrame(t, &envelope{Kind: kindResult, Batch: batch, Result: &TaskResult{Index: 0, Cost: 5, Status: solver.Unsat, Started: true, Activity: act}}))
		}},
		{"reports a NaN activity", false, func(t *testing.T, conn net.Conn, batch uint64) {
			act := solver.SparseActivities{Vars: []cnf.Var{3}, Acts: []float64{math.NaN()}}
			conn.Write(mustFrame(t, &envelope{Kind: kindResult, Batch: batch, Result: &TaskResult{Index: 0, Cost: 5, Status: solver.Unsat, Started: true, Activity: act}}))
		}},
		// Answers that would end a solve that stops on SAT with no key.
		{"reports SAT with an empty model", false, func(t *testing.T, conn net.Conn, batch uint64) {
			conn.Write(mustFrame(t, &envelope{Kind: kindResult, Batch: batch, Result: &TaskResult{Index: 0, Cost: 5, Status: solver.Sat, Started: true}}))
		}},
		{"reports SAT with a model that falsifies a clause", false, func(t *testing.T, conn net.Conn, batch uint64) {
			f := requeueFormula()
			model := cnf.NewAssignment(f.NumVars)
			for v := 1; v <= f.NumVars; v++ {
				model[v] = cnf.False // falsifies 1 ∨ 12 ∨ 24
			}
			conn.Write(mustFrame(t, &envelope{Kind: kindResult, Batch: batch, Result: &TaskResult{Index: 0, Cost: 5, Status: solver.Sat, Model: model, Started: true}}))
		}},
		{"reports status 99", false, func(t *testing.T, conn net.Conn, batch uint64) {
			conn.Write(mustFrame(t, &envelope{Kind: kindResult, Batch: batch, Result: &TaskResult{Index: 0, Cost: 5, Status: 99, Started: true}}))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			baseline := leaderGoroutines()
			var honest sync.WaitGroup // must not outlive the test
			defer honest.Wait()
			lost := make(chan int, 4) // the hostile worker's requeued tasks
			leader, err := Listen("127.0.0.1:0", requeueFormula(), LeaderOptions{
				Heartbeat: 100 * time.Millisecond,
				OnEvent: func(ev ClusterEvent) {
					if ev.Kind == WorkerLost && ev.Worker == "hostile" {
						lost <- ev.Count
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer leader.Close()
			addr := leader.Addr().String()
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()

			var conn net.Conn
			var w *wire
			if tc.unregistered {
				if conn, err = net.DialTimeout("tcp", addr, dialTimeout); err != nil {
					t.Fatal(err)
				}
			} else {
				// Alone, so the first chunk is certain to go to it.
				conn, w = register(t, addr, "hostile", 4)
				if err := leader.WaitForWorkers(ctx, 1); err != nil {
					t.Fatal(err)
				}
			}
			defer conn.Close()

			tasks := requeueTasks(16)
			// No stealing and no speculation: what the hostile worker holds can
			// only come back through the requeue that follows its loss.
			opts := BatchOptions{CostMetric: solver.CostPropagations}
			done := inBackground(ctx, leader, tasks, opts, nil, nil)

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			var batch uint64
			held := 0
			if !tc.unregistered {
				env := firstChunk(t, w)
				batch, held = env.Batch, len(env.Queued)
			}
			tc.attack(t, conn, batch)
			honest.Add(1)
			go func() {
				defer honest.Done()
				_ = Serve(ctx, addr, WorkerOptions{Capacity: 2, Name: "honest"})
			}()
			if !untilClosed(conn) {
				t.Fatal("the leader kept the hostile connection open")
			}

			out := <-done
			runtime.ReadMemStats(&after)
			if out.err != nil {
				t.Fatalf("Run: %v", out.err)
			}
			checkAgainstInproc(t, tasks, opts, out.results)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
				t.Fatalf("%d bytes allocated while the hostile worker was served", grew)
			}
			if !tc.unregistered {
				select {
				case requeued := <-lost:
					if requeued < held {
						t.Fatalf("the hostile worker held at least %d tasks, %d were requeued", held, requeued)
					}
				case <-ctx.Done():
					t.Fatal("the leader never reported the hostile worker lost")
				}
			} else if n := leader.WorkerCount(); n != 1 {
				t.Fatalf("%d workers registered, want the honest one only", n)
			}

			closed := make(chan error, 1)
			go func() { closed <- leader.Close() }()
			select {
			case err := <-closed:
				if err != nil {
					t.Fatalf("Close: %v", err)
				}
			case <-ctx.Done():
				t.Fatal("Close did not return")
			}
			for deadline := time.Now().Add(5 * time.Second); leaderGoroutines() > baseline; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d leader goroutines after Close, %d before Listen", leaderGoroutines(), baseline)
				}
			}
		})
	}
}

// TestOlderVersionIsTurnedAway: a worker that frames its messages as this
// version does but announces another one — the one before, whose results
// carried three more stats — is told why it is refused, which Serve
// reports as ErrRejected instead of redialing.  The leader reports it as
// refused.
func TestOlderVersionIsTurnedAway(t *testing.T) {
	refused := make(chan ClusterEvent, 1)
	leader, err := Listen("127.0.0.1:0", requeueFormula(), LeaderOptions{OnEvent: func(ev ClusterEvent) { refused <- ev }})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	conn, err := net.DialTimeout("tcp", leader.Addr().String(), dialTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	w := newWire(conn)
	if err := w.send(&envelope{Kind: kindHello, Proto: protocolVersion - 1, Capacity: 2, Name: "old"}); err != nil {
		t.Fatal(err)
	}
	env, err := w.recv(handshakeTimeout)
	if err != nil {
		t.Fatalf("no answer to an old hello: %v", err)
	}
	want := fmt.Sprintf("protocol version mismatch: leader speaks %d, worker %d", protocolVersion, protocolVersion-1)
	if env.Kind != kindStop || !strings.Contains(env.Err, want) {
		t.Fatalf("answer to an old hello: %+v, want a stop saying %q", env, want)
	}
	if !untilClosed(conn) {
		t.Fatal("the leader kept the refused connection open")
	}
	if n := leader.WorkerCount(); n != 0 {
		t.Fatalf("%d workers registered", n)
	}
	if ev := <-refused; ev.Kind != WorkerRefused || ev.Worker != "old" || ev.Addr != conn.LocalAddr().String() || !strings.Contains(fmt.Sprint(ev.Err), want) {
		t.Fatalf("the leader reported %+v, want the old worker refused from %s", ev, conn.LocalAddr())
	}
}

// TestForeignResultIsDropped: a worker answers a task it was never handed,
// with a cost of its choosing.  The leader must not record that answer: the
// worker that holds a task decides its result, and the batch equals the
// in-process one.
func TestForeignResultIsDropped(t *testing.T) {
	var honest sync.WaitGroup // must not outlive the test
	defer honest.Wait()
	leader, err := Listen("127.0.0.1:0", requeueFormula(), LeaderOptions{Heartbeat: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	addr := leader.Addr().String()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// The liar registers alone with one slot, so its first chunk cannot hold
	// the batch's last task.
	conn, w := register(t, addr, "liar", 1)
	defer conn.Close()
	if err := leader.WaitForWorkers(ctx, 1); err != nil {
		t.Fatal(err)
	}
	tasks := requeueTasks(16)
	opts := BatchOptions{CostMetric: solver.CostPropagations}
	done := inBackground(ctx, leader, tasks, opts, nil, nil)

	env := firstChunk(t, w)
	foreign := len(tasks) - 1
	for _, task := range env.Queued {
		if task.index == foreign {
			t.Fatalf("the first chunk already holds task %d", foreign)
		}
	}
	const forged = 1e18
	lie := TaskResult{Index: foreign, Cost: forged, Status: solver.Unsat, Started: true}
	if err := w.send(&envelope{Kind: kindResult, Batch: env.Batch, Result: &lie}); err != nil {
		t.Fatal(err)
	}
	// The lie is ahead of the disconnection on the leader's side of the
	// stream.  The liar's own task comes back through the requeue.
	conn.Close()
	honest.Add(1)
	go func() {
		defer honest.Done()
		_ = Serve(ctx, addr, WorkerOptions{Capacity: 2, Name: "honest"})
	}()

	out := <-done
	if out.err != nil {
		t.Fatalf("Run: %v", out.err)
	}
	for _, res := range out.results {
		if res.Cost == forged {
			t.Fatalf("the forged result for task %d was recorded", res.Index)
		}
	}
	checkAgainstInproc(t, tasks, opts, out.results)
}

// TestHostileWelcome: a leader's welcome does not size the worker's solver
// beyond the formula's own variable count.  A scripted leader welcomes with a
// formula of three variables one of whose clauses names a far larger one — a
// solver built from it grows to that variable, and tasks would then be held
// to a count the solver no longer has — and follows with a
// task, so that a worker that believed the welcome builds its solver.  The
// frame is malformed: Serve returns that, and has allocated for no solver.
func TestHostileWelcome(t *testing.T) {
	for name, f := range map[string]*cnf.Formula{
		"clause beyond NumVars": {NumVars: 3, Clauses: []cnf.Clause{{1, -2}, {3, -500000}}},
		"negative NumVars":      {NumVars: -3, Clauses: []cnf.Clause{{1, -2}}},
	} {
		addr, gone := scriptedLeader(t,
			&envelope{Kind: kindWelcome, Formula: f, Heartbeat: time.Second},
			&envelope{Kind: kindTasks, Batch: 1, Opts: &BatchOptions{}, Tasks: []Task{{Index: 0, Assumptions: []cnf.Lit{1, -2}}}})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := Serve(context.Background(), addr, WorkerOptions{Capacity: 1, Name: "wary"})
		runtime.ReadMemStats(&after)
		if !errors.Is(err, errFrame) {
			t.Errorf("%s: Serve returned %v, want a malformed-frame error", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: the worker allocated %d bytes", name, grew)
		}
		<-gone
	}
}

// scriptedLeader accepts one worker, reads its hello, sends it the given
// frames — a welcome first — and reads until the worker hangs up.  It returns
// the address to dial and a channel that is closed when the connection has
// ended.
func scriptedLeader(t *testing.T, frames ...*envelope) (addr string, gone <-chan struct{}) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	ended := make(chan struct{})
	go func() {
		defer close(ended)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		w := newWire(conn)
		defer w.close()
		if _, err := w.recv(handshakeTimeout); err != nil { // hello
			return
		}
		for _, env := range frames {
			_ = w.send(env) // a worker that has hung up already is what the caller checks
		}
		for err == nil {
			_, err = w.recv(10 * time.Second)
		}
	}()
	return ln.Addr().String(), ended
}
