package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/solver"
)

// ErrRejected marks a leader's explicit registration refusal (protocol
// version mismatch, bad capacity).  It is permanent: Serve does not redial
// on it, so an incompatible worker fails fast instead of reconnecting in a
// loop.
var ErrRejected = errors.New("cluster: leader rejected registration")

// WorkerOptions configure a remote worker process.
type WorkerOptions struct {
	// Capacity is the number of concurrent solving slots (goroutines, each
	// owning one persistent solver).  0 or negative means GOMAXPROCS.
	Capacity int
	// Name identifies the worker in the leader's events (default: hostname).
	Name string
	// Redial, when positive, makes Serve reconnect after a lost connection
	// instead of returning the error; the leader requeues whatever the
	// worker had in flight either way, and the loss is reported either way.
	// Redial is the *initial* delay of a capped exponential backoff
	// (doubling per consecutive failure up to maxRedial, plus a
	// deterministic per-worker jitter derived from Name); a successful
	// registration resets the backoff to Redial.  A rejected registration
	// is never redialed.
	Redial time.Duration
	// OnEvent, when non-nil, is called on Serve's goroutine with the worker's
	// own WorkerJoined, WorkerLost and WorkerRefused events, Addr the
	// leader's address.
	OnEvent func(ClusterEvent)
	// TaskDelay, when non-nil, injects extra latency before each task's
	// solve (fault injection for straggler tests and benchmarks).  The
	// delay is interruptible: a batch abort or a speculation revoke cuts
	// it short and the task reports a cancelled placeholder.
	TaskDelay func(Task) time.Duration
}

func (o *WorkerOptions) fill() {
	if o.Capacity <= 0 {
		o.Capacity = runtime.GOMAXPROCS(0)
	}
	if o.Name == "" {
		if host, err := os.Hostname(); err == nil {
			o.Name = host
		} else {
			o.Name = "worker"
		}
	}
}

func (o *WorkerOptions) event(ev ClusterEvent) {
	if o.OnEvent != nil {
		o.OnEvent(ev)
	}
}

// Serve connects to the leader at addr, registers as a worker and processes
// task batches until the context is cancelled or the leader shuts the
// worker down (kindStop → nil).  Every connection that ends in another
// error while ctx is live is reported before Serve decides what to do next:
// a rejected registration as WorkerRefused, after which Serve returns the
// error; any other end as WorkerLost, with the wait before the next dial in
// Redial, or Redial 0 when Serve returns the error because opts.Redial is
// not set.
//
// The worker receives the formula once at registration and builds a local
// in-process executor for it, so the persistent-solver reuse (pristine
// Reset per task, or MiniSat-style retention in retain batches) works
// exactly as it does for local goroutine workers.
func Serve(ctx context.Context, addr string, opts WorkerOptions) error {
	opts.fill()
	// attempt counts consecutive failed connections since the last
	// successful registration; it drives the redial backoff so a fleet of
	// workers facing a restarted (or permanently gone) leader spreads out
	// instead of thundering in lockstep at a fixed rate.
	attempt := 0
	for {
		registered, err := serveOnce(ctx, addr, &opts)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if errors.Is(err, ErrRejected) {
			opts.event(ClusterEvent{Kind: WorkerRefused, Worker: opts.Name, Addr: addr, Err: err})
			return err
		}
		if registered {
			attempt = 0
		}
		delay := redialDelay(opts.Redial, attempt, opts.Name)
		attempt++
		opts.event(ClusterEvent{Kind: WorkerLost, Worker: opts.Name, Addr: addr, Err: err, Redial: delay})
		if delay == 0 {
			return err
		}
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// maxRedial caps the exponential redial backoff: a worker probing a
// permanently gone leader settles at roughly one dial per half minute
// instead of spinning at the base rate forever.
const maxRedial = 30 * time.Second

// redialDelay returns the delay before redial attempt (0-based) after
// `attempt` consecutive failures: the base doubles per failure up to
// maxRedial, and a deterministic per-worker jitter of up to +50% — derived
// from the worker name, not from a random source, so restarts reproduce the
// exact same schedule — decorrelates workers that lost the same leader at
// the same instant.
func redialDelay(base time.Duration, attempt int, name string) time.Duration {
	if base <= 0 {
		return 0
	}
	d := base
	for i := 0; i < attempt && d < maxRedial; i++ {
		d *= 2
	}
	if d > maxRedial {
		d = maxRedial
	}
	// FNV-1a over the name and attempt number: stable across runs,
	// different across workers and attempts.
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	h ^= uint64(attempt)
	h *= 1099511628211
	jitter := time.Duration(h % uint64(d/2+1))
	return d + jitter
}

// serveOnce runs one connection's lifetime: dial, register, serve batches.
// registered reports whether the registration handshake completed — the
// redial backoff resets only then, so a leader that accepts connections but
// never welcomes them still backs the worker off.
func serveOnce(ctx context.Context, addr string, opts *WorkerOptions) (registered bool, _ error) {
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return false, err
	}
	w := newWire(conn)
	defer w.close()

	// Unblock the read loop when the context is cancelled.
	stop := context.AfterFunc(ctx, func() { w.close() })
	defer stop()

	if serr := w.send(helloFor(opts.Name, opts.Capacity)); serr != nil {
		return false, serr
	}
	env, err := w.recv(handshakeTimeout)
	if err != nil {
		return false, err
	}
	var exec *Inproc
	hb := defaultHeartbeat
	switch env.Kind {
	case kindWelcome:
		if env.Formula == nil {
			return false, fmt.Errorf("cluster: leader welcome carried no formula")
		}
		exec = NewInproc(env.Formula, opts.Capacity, solver.DefaultOptions())
		if env.Heartbeat > 0 {
			hb = env.Heartbeat
		}
	case kindStop:
		if env.Err != "" {
			return false, fmt.Errorf("%w: %s", ErrRejected, env.Err)
		}
		return false, nil
	default:
		return false, fmt.Errorf("cluster: expected welcome, got message kind %d", env.Kind)
	}
	opts.event(ClusterEvent{Kind: WorkerJoined, Worker: opts.Name, Count: opts.Capacity, Addr: addr})
	registered = true

	var batch *workerBatch
	queue := newTaskQueue() // every batch's in turn
	// interrupted is the highest batch id the leader has told us to
	// abandon.  Batch ids increase monotonically per leader, so a
	// kindTasks chunk for a batch ≤ interrupted is a wire reordering: the
	// leader's interrupt broadcast (sent by its read-loop goroutine)
	// overtook a chunk its Run loop had already marked in-flight.  Such a
	// chunk must be answered with cancelled placeholders — solving it
	// would be uninterruptible (the batch's interrupt already went by),
	// and dropping it silently would leave the leader waiting forever.
	var interrupted uint64
	// The closure re-reads batch at exit time; a plain `defer batch.stop()`
	// would pin the nil receiver evaluated at the defer statement and leave
	// the final batch's solves running after the connection drops.
	defer func() { batch.stop() }()
	for {
		env, err := w.recv(hb * readGraceFactor)
		if err != nil {
			if ctx.Err() != nil {
				return registered, ctx.Err()
			}
			return registered, err
		}
		switch env.Kind {
		case kindPing:
			if err := w.send(&envelope{Kind: kindPong}); err != nil {
				return registered, err
			}
		case kindTasks:
			if env.Batch <= interrupted {
				for _, t := range env.Queued {
					res := TaskResult{Index: t.index, Status: solver.Unknown}
					if err := w.queue(&envelope{Kind: kindResult, Batch: env.Batch, Result: &res}); err != nil {
						return registered, err
					}
				}
				if err := w.flush(); err != nil {
					return registered, err
				}
				continue
			}
			if batch == nil || batch.id != env.Batch {
				batch.stop()
				batch = newWorkerBatch(ctx, env.Batch, *env.Opts, exec, w, queue, opts.TaskDelay)
			}
			batch.q.push(env.Queued)
		case kindRevoke:
			// Stealing form: give back up to Count queued (never started)
			// tasks from the back of the local queue and acknowledge them —
			// the leader requeues a task only on that acknowledgement.
			// Discard form: the leader already recorded another copy's
			// result; drop queued copies, interrupt started ones, reply
			// nothing.
			if env.Discard {
				if batch != nil && batch.id == env.Batch {
					batch.discard(env.Indices)
				}
				continue
			}
			var idxs []int
			if batch != nil && batch.id == env.Batch {
				idxs = batch.q.removeTail(env.Count)
			}
			// Always acknowledge — an empty ack unblocks the leader's
			// per-worker steal bookkeeping even when the queue drained (or
			// the batch died) before the revoke arrived.
			if err := w.send(&envelope{Kind: kindRevoked, Batch: env.Batch, Indices: idxs}); err != nil {
				return registered, err
			}
		case kindInterrupt:
			// Only the batch dies; the connection and the pooled solvers
			// survive.  A planned abort (incumbent pruning), a stop-on-SAT
			// and a cancellation all arrive as this one message.
			if env.Batch > interrupted {
				interrupted = env.Batch
			}
			if batch != nil && batch.id == env.Batch {
				batch.stop()
				batch = nil
			}
		case kindStop:
			if env.Err != "" {
				return registered, fmt.Errorf("cluster: leader stopped worker: %s", env.Err)
			}
			opts.event(ClusterEvent{Kind: WorkerLost, Worker: opts.Name, Addr: addr, Err: ErrClosed})
			return registered, nil
		}
	}
}

// workerBatch runs one batch's tasks on the local executor and returns each
// result to the leader through the connection's pending buffer (wire.queue):
// results share a write while there is more to solve, and a slot that finds
// the queue empty, or exits, writes what is pending before it waits.
type workerBatch struct {
	id     uint64
	opts   BatchOptions
	cancel context.CancelFunc
	q      *taskQueue
	wg     sync.WaitGroup
	// slots are the batch's solving slots, each entered by its goroutine once
	// it has its solver; a discard revoke for a started task (speculation
	// loser) interrupts exactly that task on whichever slot runs it, leaving
	// its siblings and the batch itself untouched.
	mu    sync.Mutex
	slots []*solveWorker // guarded by mu
}

// newWorkerBatch starts the batch's solving slots, one goroutine each for the
// life of the batch; stop ends them.  parent is the worker's own context: once
// it is cancelled the slots send nothing more, neither the task in hand nor
// what is pending, and the leader requeues from the dropped connection.  q is
// reopened for the batch, so the batch before must have been stopped.
func newWorkerBatch(parent context.Context, id uint64, opts BatchOptions, exec *Inproc, w *wire, q *taskQueue, delay func(Task) time.Duration) *workerBatch {
	ctx, cancel := context.WithCancel(parent)
	q.reopen()
	b := &workerBatch{id: id, opts: opts, cancel: cancel, q: q}
	for i := 0; i < exec.Workers(); i++ {
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			sw := newSolveWorker(ctx, exec, opts.Retain)
			defer sw.close()
			if delay != nil {
				sw.wake = make(chan struct{}, 1)
			}
			// The slot's own buffer for the assumptions of the task in hand.
			var assumptions []cnf.Lit
			b.mu.Lock()
			b.slots = append(b.slots, sw)
			b.mu.Unlock()
			// Nothing more to do: the results held back must not wait for the
			// next chunk, and the batch's tail not at all.  A failed write is
			// the connection's end, which the read loop reports.
			flush := func() {
				if parent.Err() == nil {
					_ = w.flush()
				}
			}
			for {
				var (
					index         int
					ok, cancelled bool
				)
				index, assumptions, ok, cancelled = b.q.pop(flush, assumptions[:0])
				if !ok {
					flush()
					return
				}
				var res TaskResult
				if cancelled || ctx.Err() != nil {
					// Cancelled before a solver saw it: report a
					// placeholder, exactly like the in-process producer
					// draining its queue.
					res = TaskResult{Index: index, Status: solver.Unknown}
				} else {
					res = b.solveOne(sw, Task{Index: index, Assumptions: assumptions}, delay)
				}
				if parent.Err() != nil {
					// Not this batch but the worker itself is going down, and
					// res may be what that cancellation left of the task: a
					// placeholder or a truncated solve.  Sent before the
					// connection closes, it would be recorded as the task's
					// result; unsent, the leader requeues the task when the
					// connection drops — with those whose results are still
					// pending, which are not flushed either.
					return
				}
				// Encoded before the call returns: res.Activity is the slot's
				// buffer, and the next task's harvest overwrites it.
				if err := w.queue(&envelope{Kind: kindResult, Batch: id, Result: &res}); err != nil {
					// Connection gone; the read loop notices too.  Stop
					// pulling work — the leader requeues it elsewhere.
					b.q.cancelQueue()
					return
				}
			}
		}()
	}
	return b
}

// solveOne runs one task on a slot, with the optional injected latency
// applied first.
func (b *workerBatch) solveOne(sw *solveWorker, t Task, delay func(Task) time.Duration) TaskResult {
	if delay != nil {
		if d := delay(t); d > 0 {
			sw.begin(t.Index, nil)
			timer := time.NewTimer(d)
			select {
			case <-timer.C:
			case <-sw.wake:
			}
			timer.Stop()
			if sw.end() {
				return TaskResult{Index: t.Index, Status: solver.Unknown}
			}
		}
	}
	return sw.solveTask(t, b.opts)
}

// discard drops the listed tasks without reporting results: queued copies
// are removed from the local queue, started ones have their solve
// interrupted (the truncated result the slot then sends is stale on the
// leader, which already recorded the winning copy).
func (b *workerBatch) discard(idxs []int) {
	for _, idx := range idxs {
		if b.q.remove(idx) {
			continue
		}
		b.mu.Lock()
		for _, sw := range b.slots {
			sw.interruptTask(idx)
		}
		b.mu.Unlock()
	}
}

// stop interrupts the batch's in-flight solves, drains its queue as
// placeholders and waits for the slots to finish (returning their pooled
// solvers).  It is nil-safe and idempotent.
func (b *workerBatch) stop() {
	if b == nil {
		return
	}
	b.cancel()
	b.q.cancelQueue()
	b.wg.Wait()
}

// taskQueue is an unbounded FIFO of tasks with a cancellation flag: after
// cancelQueue, remaining and future tasks are handed out flagged as
// cancelled (the popper reports placeholders for them), and pop unblocks.
//
// A connection has one queue, which serves its batches one after another
// (reopen), and the queue owns the assumption bytes of the tasks pushed onto
// it: push appends a chunk's behind those of the chunks before it, in an
// arena.  pop decodes a task into the slot's own buffer before it lets go of
// the lock, so the arena holds queued tasks only: it starts over whenever the
// queue runs empty, and push moves the queued tasks to the front of the list
// and of the arena before it grows either.  Both are therefore as large as
// the deepest the queue has been, not as the share of a batch the worker
// took, which depends on timing; a warm worker takes a chunk without an
// allocation.
type taskQueue struct {
	mu        sync.Mutex
	cond      *sync.Cond
	items     []queuedTask // items[head:] are queued
	head      int
	lits      []byte // the arena
	cancelled bool
}

// keepQueued is the largest arena a queue keeps from one batch for the next,
// in bytes: far above what a queue of a few milliseconds of work holds (a
// whole 2500-task batch of 120-literal Bivium subproblems is 600 kB, two
// bytes a literal).
const keepQueued = 1 << 20

func newTaskQueue() *taskQueue {
	q := &taskQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// reopen empties the queue for a new batch.  No slot of the batch before may
// be left to read what it held (workerBatch.stop waits for them).
func (q *taskQueue) reopen() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if cap(q.lits) > keepQueued {
		q.items, q.lits = nil, nil // the list's stale entries point into the arena
	}
	q.items, q.head, q.lits, q.cancelled = q.items[:0], 0, q.lits[:0], false
}

// push queues a chunk, the bytes of its assumptions copied into the arena:
// the chunk's own are the frame's, which the next frame overwrites.
func (q *taskQueue) push(tasks []queuedTask) {
	n := 0
	for i := range tasks {
		n += len(tasks[i].lits)
	}
	q.mu.Lock()
	if len(q.lits)+n > cap(q.lits) || len(q.items)+len(tasks) > cap(q.items) {
		q.compact()
	}
	q.lits = slices.Grow(q.lits, n)
	for _, t := range tasks {
		from := len(q.lits)
		q.lits = append(q.lits, t.lits...)
		t.lits = q.lits[from:]
		q.items = append(q.items, t)
	}
	q.mu.Unlock()
	q.cond.Broadcast()
}

// compact moves the queued tasks to the front of the list and their bytes to
// the front of the arena, in order, so that each moves down over bytes no
// queued task needs (callers hold mu).
func (q *taskQueue) compact() {
	queued := q.items[q.head:]
	lits := q.lits[:0]
	for i := range queued {
		from := len(lits)
		lits = append(lits, queued[i].lits...)
		queued[i].lits = lits[from:]
	}
	q.items = append(q.items[:0], queued...)
	q.head, q.lits = 0, lits
}

func (q *taskQueue) cancelQueue() {
	q.mu.Lock()
	q.cancelled = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// pop blocks until a task is available or the queue is cancelled, calling
// idle first (outside the lock) if it has to wait, and returns the task's
// index and its assumptions appended to dst.  ok is false when the queue is
// cancelled and empty; cancelled marks tasks that must be reported as
// placeholders instead of solved.
func (q *taskQueue) pop(idle func(), dst []cnf.Lit) (index int, assumptions []cnf.Lit, ok, cancelled bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.empty() && !q.cancelled {
		q.mu.Unlock()
		idle()
		q.mu.Lock()
	}
	for q.empty() && !q.cancelled {
		q.cond.Wait()
	}
	if q.empty() {
		return 0, dst, false, false
	}
	t := &q.items[q.head]
	q.head++
	assumptions = t.appendAssumptions(dst)
	if q.empty() {
		q.items, q.head, q.lits = q.items[:0], 0, q.lits[:0] // both start over
	}
	return t.index, assumptions, true, q.cancelled
}

// requires mu
func (q *taskQueue) empty() bool { return q.head == len(q.items) }

// removeTail removes up to n not-yet-started tasks from the back of the queue
// and returns their indices, the stealing revoke's acknowledgement payload
// (nothing once the queue is cancelled: its tasks are already owed to the
// leader as placeholders and must not be requeued elsewhere too).  Taking from
// the back preserves the head the slots are about to start on.
func (q *taskQueue) removeTail(n int) []int {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.cancelled || n <= 0 {
		return nil
	}
	cut := max(len(q.items)-n, q.head)
	idxs := make([]int, 0, len(q.items)-cut)
	for _, t := range q.items[cut:] {
		idxs = append(idxs, t.index)
	}
	q.items = q.items[:cut]
	return idxs
}

// remove deletes the queued task with the given index, reporting whether it
// was still queued (same cancellation guard as removeTail).
func (q *taskQueue) remove(idx int) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.cancelled {
		return false
	}
	for i := q.head; i < len(q.items); i++ {
		if q.items[i].index == idx {
			q.items = append(q.items[:i], q.items[i+1:]...)
			return true
		}
	}
	return false
}
