package cluster

import (
	"context"
	"errors"
	"net"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/solver"
)

// ErrClosed is returned by Leader methods after Close.
var ErrClosed = errors.New("cluster: leader is closed")

// LeaderOptions configure a network leader.
type LeaderOptions struct {
	// Heartbeat is the ping interval; a worker silent for several
	// intervals is declared lost and its in-flight tasks are requeued
	// (0 means a 1s default).
	Heartbeat time.Duration
	// Logf, when non-nil, receives human-readable cluster events (worker
	// joins, losses, requeues).
	Logf func(format string, args ...any)
	// OnEvent, when non-nil, is called with every ClusterEvent: a worker
	// joining or being lost, queued tasks stolen back, a speculative duplicate
	// winning.  It runs on the goroutine of the connection the event happened
	// on and must not block.
	OnEvent func(ClusterEvent)
}

// ClusterEventKind says what happened in a ClusterEvent.
type ClusterEventKind int

// The cluster events, and what Count counts in each.
const (
	// WorkerJoined: a worker completed its registration handshake; Count is
	// its slot count.
	WorkerJoined ClusterEventKind = iota
	// WorkerLost: a registered worker was dropped (connection error, missed
	// heartbeats or leader shutdown); Count is the number of its in-flight
	// tasks requeued onto the remaining workers.
	WorkerLost
	// TaskStolen: queued tasks were revoked from a backlogged worker for
	// reassignment (BatchOptions.Steal); Count is how many were taken back.
	TaskStolen
	// SpeculationWon: this worker's speculative duplicate of a straggling task
	// delivered the first (recorded) result (BatchOptions.Speculate); Count
	// is the number of tasks won.
	SpeculationWon
)

// ClusterEvent is one thing that happened to a leader's workers or to the
// custody of its tasks: its kind, the self-reported name of the worker
// concerned and the kind's count.
type ClusterEvent struct {
	Kind   ClusterEventKind
	Worker string
	Count  int
}

// Leader is the network Transport: it accepts worker registrations on a TCP
// listener, ships each worker the formula once, streams task batches to
// them, and collects results.  It implements the leader role of the paper's
// MPI program PDSAT, including its non-blocking interrupt messages
// (stop-on-SAT and cancellation reach workers without waiting for them to
// finish their current subproblem).
//
// Run dispatches only to remote workers; the leader process itself solves
// nothing, like the PDSAT control process.  Workers may join at any time —
// including in the middle of a batch — and a worker whose connection is
// lost has its outstanding tasks requeued onto the remaining workers, so a
// batch survives worker churn as long as at least one worker eventually
// serves it.
type Leader struct {
	ln   net.Listener
	opts LeaderOptions
	// welcome is the registration reply — the formula and the heartbeat —
	// as a frame, encoded once for every worker that will ever join.  Every
	// worker's results are held to the formula: their activity to its
	// variables, their SAT models to its clauses.
	welcome []byte
	formula *cnf.Formula

	mu sync.Mutex
	// workers holds the registered workers in registration (id) order, the
	// order in which tasks are assigned and broadcasts sent.
	workers  []*remoteWorker // guarded by mu
	nextID   uint64          // guarded by mu
	batch    *netBatch       // guarded by mu
	batchSeq uint64          // guarded by mu
	closed   bool            // guarded by mu
	// joined is closed, and replaced, each time a worker registers, and
	// closed for good by Close: it wakes WaitForWorkers.
	joined chan struct{} // guarded by mu
	// handshaking holds the accepted connections that have not registered
	// yet, so that Close can end their handshakes too.
	handshaking map[net.Conn]struct{} // guarded by mu
	// solveMean is the running mean of the solve times of the results
	// recorded so far, over the last meanWindow of them; solves counts them up
	// to that window.  It sizes worker queues (targetDepth) and nothing else:
	// no sample, cost or estimate ever sees it.
	solveMean time.Duration // guarded by mu
	solves    int64         // guarded by mu

	// wg counts the accept loop, every connection goroutine and every
	// pinger; Close waits for it.  Counts are added under mu while closed is
	// still false, so every Add happens before Close's Wait.
	wg sync.WaitGroup

	// runMu serializes Run calls: the wire protocol tracks one active
	// batch at a time.
	runMu sync.Mutex
}

// remoteWorker is the leader-side state of one registered worker.
type remoteWorker struct {
	id       uint64
	name     string
	capacity int
	w        *wire
	// gone, inflight, planned and revoking are guarded by Leader.mu.
	gone     bool
	inflight map[int]Task
	// planned is distributeLocked's count of the tasks it is about to cut
	// from the pending queue for this worker, zero between its calls.
	planned int
	// revoking marks an outstanding stealing revoke: the leader waits for
	// this worker's kindRevoked acknowledgement (or its death) before
	// planning another steal, so a task can never be in doubt between the
	// worker's queue and the leader's pending list.
	revoking bool
	// done is closed when the worker is dropped; it stops the pinger.
	done chan struct{}
}

// netBatch is the leader-side state of one Run call (guarded by Leader.mu).
type netBatch struct {
	id   uint64
	opts BatchOptions
	// pending is the tasks not yet assigned: at first the caller's slice
	// itself, capped at its length, which is only ever cut from the front and
	// read.  Requeued tasks are appended behind it, and since nothing lies
	// between its length and its capacity the first append moves it to an
	// array of its own; the caller's is never written.
	pending []Task
	got     []bool
	// collector's results have room for every task from the start — the
	// caller's lent array, or one of the batch's own — and gain one result
	// per index, observed on the goroutine that records it.  Nothing is
	// recorded or observed once RunDispatch has unset Leader.batch.
	collector
	remaining int
	cancelled bool
	wake      chan struct{} // capacity 1; non-blocking notifications
	// spec maps a speculatively duplicated task index to the worker id the
	// duplicate was sent to (nil until the first duplication).  An index
	// present here is live on two workers at once; everywhere else a task
	// has exactly one live assignment.
	spec map[int]uint64
	// stats counts this batch's adaptive-dispatch actions.
	stats DispatchStats
	// sends is assign's list of planned transmissions, reused from call to
	// call (only the batch loop calls assign).
	sends []sendChunk
}

// Listen starts a leader for the formula on the given TCP address
// (host:port; port 0 picks a free port, see Addr).
func Listen(addr string, f *cnf.Formula, opts LeaderOptions) (*Leader, error) {
	if opts.Heartbeat <= 0 {
		opts.Heartbeat = defaultHeartbeat
	}
	welcome, err := appendFrame(nil, &envelope{
		Kind:      kindWelcome,
		Formula:   f,
		Heartbeat: opts.Heartbeat,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	l := &Leader{
		ln: ln, opts: opts, welcome: welcome, formula: f,
		joined:      make(chan struct{}),
		handshaking: make(map[net.Conn]struct{}),
	}
	l.wg.Add(1)
	go l.acceptLoop()
	return l, nil
}

// Addr returns the address the leader is listening on.
func (l *Leader) Addr() net.Addr { return l.ln.Addr() }

func (l *Leader) logf(format string, args ...any) {
	if l.opts.Logf != nil {
		l.opts.Logf(format, args...)
	}
}

func (l *Leader) event(kind ClusterEventKind, worker string, count int) {
	if l.opts.OnEvent != nil {
		l.opts.OnEvent(ClusterEvent{Kind: kind, Worker: worker, Count: count})
	}
}

// Workers reports the summed capacity of the currently registered workers.
func (l *Leader) Workers() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	total := 0
	for _, rw := range l.workers {
		total += rw.capacity
	}
	return total
}

// WorkerCount reports how many workers are currently registered.
func (l *Leader) WorkerCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.workers)
}

// WaitForWorkers blocks until at least n workers are registered, the
// context is cancelled, or the leader is closed.
func (l *Leader) WaitForWorkers(ctx context.Context, n int) error {
	for {
		l.mu.Lock()
		count, closed, joined := len(l.workers), l.closed, l.joined
		l.mu.Unlock()
		if count >= n {
			return nil
		}
		if closed {
			return ErrClosed
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-joined:
		}
	}
}

// Close stops accepting workers, tells the registered ones to shut down,
// disconnects them and every connection still in its handshake, and waits
// for the leader's goroutines to exit: once Close has returned, no
// LeaderOptions callback is running or will run.  It must therefore not be
// called from such a callback.
func (l *Leader) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		l.wg.Wait()
		return nil
	}
	l.closed = true
	close(l.joined)
	ws := slices.Clone(l.workers)
	conns := make([]net.Conn, 0, len(l.handshaking))
	for conn := range l.handshaking {
		conns = append(conns, conn)
	}
	if b := l.batch; b != nil {
		wakeLocked(b)
	}
	l.mu.Unlock()

	err := l.ln.Close()
	for _, conn := range conns {
		conn.Close() // fails the handshake's pending read or write
	}
	for _, rw := range ws {
		rw.w.send(&envelope{Kind: kindStop}) // best effort
		l.dropWorker(rw, ErrClosed)
	}
	l.wg.Wait()
	return err
}

// acceptLoop registers incoming workers until the listener closes.
func (l *Leader) acceptLoop() {
	defer l.wg.Done()
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			return
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			conn.Close()
			return
		}
		l.handshaking[conn] = struct{}{}
		l.wg.Add(1)
		l.mu.Unlock()
		go l.handleConn(conn)
	}
}

// handleConn performs the registration handshake and then runs the per-
// worker read loop.
func (l *Leader) handleConn(conn net.Conn) {
	defer l.wg.Done()
	w := newWire(conn)
	w.numVars = l.formula.NumVars
	// abandon ends a connection that did not get through the handshake.
	abandon := func() {
		l.mu.Lock()
		delete(l.handshaking, conn)
		l.mu.Unlock()
		w.close()
	}
	env, err := w.recv(handshakeTimeout)
	if err != nil {
		abandon()
		// A worker of a version that frames its messages differently ends
		// here, as a malformed frame.
		l.logf("cluster: no registration from %s: %v", conn.RemoteAddr(), err)
		return
	}
	if err := checkHello(env); err != nil {
		w.send(&envelope{Kind: kindStop, Err: err.Error()})
		abandon()
		l.logf("cluster: rejected worker from %s: %v", conn.RemoteAddr(), err)
		return
	}
	if err := w.sendFrame(l.welcome); err != nil {
		abandon()
		return
	}

	rw := &remoteWorker{
		name:     env.Name,
		capacity: env.Capacity,
		w:        w,
		inflight: make(map[int]Task),
		done:     make(chan struct{}),
	}
	l.mu.Lock()
	delete(l.handshaking, conn)
	if l.closed {
		l.mu.Unlock()
		w.send(&envelope{Kind: kindStop})
		w.close()
		return
	}
	l.nextID++
	rw.id = l.nextID
	l.workers = append(l.workers, rw)
	close(l.joined)
	l.joined = make(chan struct{})
	b := l.batch
	if b != nil {
		wakeLocked(b) // a running batch can start using the newcomer
	}
	l.wg.Add(1) // the pinger
	l.mu.Unlock()
	l.logf("cluster: worker %q joined from %s with %d slot(s)", rw.name, conn.RemoteAddr(), rw.capacity)
	l.event(WorkerJoined, rw.name, rw.capacity)

	go l.ping(rw)

	for {
		env, err := w.recv(l.opts.Heartbeat * readGraceFactor)
		if err != nil {
			l.dropWorker(rw, err)
			return
		}
		switch env.Kind {
		case kindResult:
			if err := l.deliver(rw, env); err != nil {
				l.dropWorker(rw, err)
				return
			}
		case kindRevoked:
			l.handleRevoked(rw, env)
		case kindPong, kindHello:
			// Liveness is implied by the successful read.
		}
	}
}

// ping sends heartbeats until the worker is dropped.
func (l *Leader) ping(rw *remoteWorker) {
	defer l.wg.Done()
	t := time.NewTicker(l.opts.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-rw.done:
			return
		case <-t.C:
			if err := rw.w.send(&envelope{Kind: kindPing}); err != nil {
				l.dropWorker(rw, err)
				return
			}
		}
	}
}

// dropWorker unregisters a worker and requeues its in-flight tasks onto the
// active batch (as pending work, or as cancelled placeholders if the batch
// is already cancelled).  It is idempotent.
func (l *Leader) dropWorker(rw *remoteWorker, cause error) {
	l.mu.Lock()
	if rw.gone {
		l.mu.Unlock()
		return
	}
	rw.gone = true
	l.workers = slices.DeleteFunc(l.workers, func(w *remoteWorker) bool { return w == rw })
	requeued := 0
	if b := l.batch; b != nil {
		// Requeue in task-index order, not map order, so the surviving
		// workers see the lost worker's tasks in a stable sequence.
		idxs := make([]int, 0, len(rw.inflight))
		for idx := range rw.inflight {
			idxs = append(idxs, idx)
		}
		sort.Ints(idxs)
		for _, idx := range idxs {
			if l.releaseLocked(b, rw, rw.inflight[idx]) {
				requeued++
			}
		}
		wakeLocked(b)
	}
	rw.inflight = nil
	l.mu.Unlock()

	close(rw.done)
	rw.w.close()
	if requeued > 0 {
		l.logf("cluster: worker %q lost (%v); requeued %d task(s)", rw.name, cause, requeued)
	} else {
		l.logf("cluster: worker %q disconnected (%v)", rw.name, cause)
	}
	l.event(WorkerLost, rw.name, requeued)
}

// deliver records one result from a worker into the active batch, where the
// observer reads its activity vector in the connection's read buffer.  A SAT
// whose model falsifies the formula is not recorded: deliver returns the
// error, and the worker — still holding the task — is dropped and its tasks
// requeued.
func (l *Leader) deliver(rw *remoteWorker, env *envelope) error {
	res := *env.Result
	if err := checkModel(l.formula, &res); err != nil {
		return err
	}
	l.mu.Lock()
	b := l.batch
	if b == nil || env.Batch != b.id {
		// Stale result from a finished or cancelled batch (e.g. a worker
		// that was presumed lost and answered late).
		l.mu.Unlock()
		return nil
	}
	if _, held := rw.inflight[res.Index]; !held {
		// Not a task of this batch that this worker holds: the losing copy
		// of a speculated task, a result racing its own discard, an index
		// outside the batch — or a worker answering for tasks it was never
		// sent, which must not decide their cost.
		l.mu.Unlock()
		return nil
	}
	delete(rw.inflight, res.Index)
	if b.got[res.Index] {
		l.mu.Unlock()
		return nil
	}
	cancel := recordLocked(b, res)
	if res.Started && !res.Cancelled {
		l.solves = min(l.solves+1, meanWindow)
		l.solveMean += (res.Stats.SolveTime - l.solveMean) / time.Duration(l.solves)
	}
	// Speculation resolution: the first result for a duplicated task wins
	// — in pristine batches both copies would be bit-identical, so this
	// decides timing, never content — and every other live copy is wiped
	// from the books and discarded on its worker.
	var losers []*remoteWorker
	specWin := false
	if dupID, dup := b.spec[res.Index]; dup {
		specWin = dupID == rw.id
		if specWin {
			b.stats.SpeculationWins++
		}
		for _, ow := range l.workers {
			if ow == rw {
				continue
			}
			if _, live := ow.inflight[res.Index]; live {
				delete(ow.inflight, res.Index)
				losers = append(losers, ow)
			}
		}
		delete(b.spec, res.Index)
	}
	broadcast := cancel && !b.cancelled
	if broadcast {
		cancelLocked(b)
	}
	id := b.id
	winner := rw.name
	wakeLocked(b)
	l.mu.Unlock()
	for _, ow := range losers {
		// Best effort: a loser that misses the discard keeps solving a
		// stale copy whose eventual result the got guard drops.
		if err := ow.w.send(&envelope{Kind: kindRevoke, Batch: id, Discard: true, Indices: []int{res.Index}}); err != nil {
			l.dropWorker(ow, err)
		}
	}
	if specWin {
		l.logf("cluster: speculative duplicate of task %d won on worker %q", res.Index, winner)
		l.event(SpeculationWon, winner, 1)
	}
	if broadcast {
		l.broadcastInterrupt(id)
	}
	return nil
}

// handleRevoked processes a worker's stealing acknowledgement: only now do
// the revoked tasks move back onto the batch's pending queue.  Between the
// revoke and this acknowledgement a task stayed in the worker's inflight
// set, so a worker dying mid-steal requeues it exactly once through
// dropWorker — never zero times, never twice.
func (l *Leader) handleRevoked(rw *remoteWorker, env *envelope) {
	l.mu.Lock()
	rw.revoking = false
	b := l.batch
	if b == nil || env.Batch != b.id {
		l.mu.Unlock()
		return
	}
	stolen := 0
	for _, idx := range env.Indices {
		if idx < 0 || idx >= len(b.got) {
			continue
		}
		t, ok := rw.inflight[idx]
		if !ok {
			continue
		}
		delete(rw.inflight, idx)
		if l.releaseLocked(b, rw, t) {
			stolen++
		}
	}
	if stolen > 0 {
		b.stats.TasksStolen += stolen
	}
	wakeLocked(b)
	victim := rw.name
	l.mu.Unlock()
	if stolen > 0 {
		l.logf("cluster: stole %d queued task(s) back from worker %q", stolen, victim)
		l.event(TaskStolen, victim, stolen)
	}
}

// releaseLocked settles task t of the batch after worker rw gave up its copy —
// the worker was lost, or it acknowledged a steal — and rw no longer counts as
// holding it.  An answered task needs nothing.  If another worker still holds
// a live copy (speculation), that copy answers for it: requeuing would
// duplicate the assignment, and if rw held the duplicate the index becomes
// speculatable again.  Otherwise the task goes back onto the pending queue —
// or, in a cancelled batch, is recorded as a placeholder, since no abort will
// drain it from a worker's queue now.  It reports whether it requeued.
// requires mu
func (l *Leader) releaseLocked(b *netBatch, rw *remoteWorker, t Task) bool {
	idx := t.Index
	if b.got[idx] {
		return false
	}
	if l.assigneeLocked(idx) != nil {
		if b.spec[idx] == rw.id {
			delete(b.spec, idx)
		}
		return false
	}
	delete(b.spec, idx)
	if b.cancelled {
		placeholderLocked(b, idx)
		return false
	}
	b.pending = append(b.pending, t)
	return true
}

// assigneeLocked returns the registered worker currently holding the task
// index in its inflight set, nil if none (workers are scanned in id order,
// so ties — impossible outside speculation — are deterministic).
// requires mu
func (l *Leader) assigneeLocked(idx int) *remoteWorker {
	for _, rw := range l.workers {
		if _, ok := rw.inflight[idx]; ok {
			return rw
		}
	}
	return nil
}

// cancelLocked marks the batch cancelled and converts its not-yet-assigned
// tasks into placeholder results, which are observed as they are recorded
// (callers hold Leader.mu).
func cancelLocked(b *netBatch) {
	b.cancelled = true
	for _, t := range b.pending {
		placeholderLocked(b, t.Index)
	}
	b.pending = nil
}

// placeholderLocked records a cancelled-before-start result in a cancelled
// batch, which nothing more cancels (callers hold Leader.mu).
func placeholderLocked(b *netBatch, idx int) {
	if !b.got[idx] {
		recordLocked(b, TaskResult{Index: idx, Status: solver.Unknown})
	}
}

// recordLocked records the result of a task that has none yet, observes it,
// and reports whether the batch must now be cancelled (collector.collect;
// callers hold Leader.mu and cancel before they release it).
func recordLocked(b *netBatch, res TaskResult) bool {
	b.got[res.Index] = true
	b.remaining--
	return b.collect(res, b.opts.Stop)
}

// wakeLocked nudges the Run loop (callers hold Leader.mu).
func wakeLocked(b *netBatch) {
	select {
	case b.wake <- struct{}{}:
	default:
	}
}

// broadcastInterrupt tells every registered worker to abandon the batch,
// dropping workers whose connection fails.  This is the leader's
// non-blocking interrupt: workers poll for it mid-search.
func (l *Leader) broadcastInterrupt(batchID uint64) {
	l.mu.Lock()
	ws := slices.Clone(l.workers) // dropWorker edits l.workers in place
	l.mu.Unlock()
	for _, rw := range ws {
		if err := rw.w.send(&envelope{Kind: kindInterrupt, Batch: batchID}); err != nil {
			l.dropWorker(rw, err)
		}
	}
}

// cancelBatch ends the batch early, once: its unassigned tasks become
// placeholders and the workers are interrupted; the batch still collects
// what is in flight.
func (l *Leader) cancelBatch(b *netBatch) {
	l.mu.Lock()
	first := !b.cancelled
	if first {
		cancelLocked(b)
	}
	l.mu.Unlock()
	if first {
		l.broadcastInterrupt(b.id)
	}
}

// sendChunk is one pending kindTasks transmission planned under Leader.mu
// and sent outside it.
type sendChunk struct {
	rw    *remoteWorker
	tasks []Task
}

// A worker's queue is sized in solve time.  horizon is how much work, at the
// mean solve time the leader has observed, may wait on a worker beyond the
// floor of two tasks a slot; depthCap bounds it per solving slot,
// whatever the mean; meanWindow is how many results the mean remembers, so
// that a leader whose tasks turn from microseconds to milliseconds (an
// estimate, then the solve it predicted) follows within that many results.
// Sized on the benchmark's TCP workloads, see the table at flushEvery in
// proto.go: with a 65 µs solve, a frame of one task for every result cost
// half a solve a task (traced bivium-estimate-tcp: cluster.task_overhead_us
// 27–32, slot_util_pct 70–72); at a horizon of 1 ms a frame carries seven
// tasks or more (12–13, 84–85).
const (
	horizon    = time.Millisecond
	depthCap   = 256
	meanWindow = 64
)

// targetDepth is the dispatch depth for one worker — in-flight plus locally
// queued tasks — decided by two rules, both from what the leader measures
// itself.  The floor is in tasks: two a slot, one executing and one queued
// behind it to hide the network round-trip while results stream back.
//
// Above the floor the depth is in time: one horizon of work per slot at the
// observed mean solve time (0: nothing observed yet), so that short tasks
// travel many to a frame.  Only a batch with Steal gets it, because only
// stealing can take a deep queue back from a worker that turns out slow: a
// pinned batch with a deep queue behind a straggler waits for all of it
// (an estimate behind a half-second straggler: 1.0 s, and 1.5 to 10.5 s
// with this condition taken out).
// Tasks at or above the horizon leave the floor as it is.
func targetDepth(capacity int, opts *BatchOptions, mean time.Duration) int {
	d := capacity * 2
	if opts.Steal && mean > 0 {
		d = max(d, capacity*int(min(horizon/mean, depthCap)))
	}
	return d
}

// assign hands pending tasks to workers (distributeLocked), one frame a
// worker.  When the pending queue is dry and
// tasks remain unfinished, the batch's dispatch policies take over
// (BatchOptions.Steal/Speculate): stealing plans a revoke of queued tasks
// from the most backlogged worker, and speculation duplicates the batch's
// last unfinished tasks onto idle execution slots.
func (l *Leader) assign(b *netBatch) {
	var stealFrom *remoteWorker
	stealCount := 0
	l.mu.Lock()
	if l.batch != b || b.cancelled {
		l.mu.Unlock()
		return
	}
	ws := l.workers
	sends := distributeLocked(b, ws, b.sends[:0], l.solveMean)
	if len(b.pending) == 0 && b.remaining > 0 {
		// While a steal acknowledgement is outstanding the revoked tasks'
		// custody is in transit — plan neither another steal nor a
		// speculation round until it lands (or the victim dies).
		revoking := false
		for _, rw := range ws {
			if rw.revoking {
				revoking = true
				break
			}
		}
		if !revoking {
			if b.opts.Steal {
				stealFrom, stealCount = planStealLocked(ws)
			}
			if b.opts.Speculate && stealFrom == nil {
				sends = append(sends, l.planSpeculationLocked(b, ws)...)
			}
		}
	}
	b.sends = sends
	l.mu.Unlock()
	id := b.id
	for _, c := range sends {
		if err := c.rw.w.send(&envelope{Kind: kindTasks, Batch: id, Opts: &b.opts, Tasks: c.tasks}); err != nil {
			// dropWorker requeues the chunk we just marked in-flight.
			l.dropWorker(c.rw, err)
		}
	}
	if stealFrom != nil {
		if err := stealFrom.w.send(&envelope{Kind: kindRevoke, Batch: id, Count: stealCount}); err != nil {
			l.dropWorker(stealFrom, err)
		}
	}
}

// distributeLocked hands pending tasks to workers in id order and appends the
// planned transmissions, at most one a worker, to sends (callers hold
// Leader.mu and send outside it).  It counts in two passes and then cuts.
//
// Free execution slots come first, across the whole cluster, before anyone's
// queue is topped up: a task just stolen off a backlogged worker must land
// where it can run now, not bounce back into the victim's spare dispatch depth
// in id order — that bounce would steal the same task forever.  Steals are
// capped at the cluster's free slots, so this pass absorbs every stolen task.
//
// Then spare dispatch depth (targetDepth at the mean solve time), in chunks: a
// worker is topped up only once half its depth is free, so that a frame
// carries half a queue instead of the one task the last result made room for.
// At the floor depth of a one-slot worker, two, that is one task a frame, as
// it always was.
//
// A chunk is the front of the pending queue itself, not a copy: the queue
// moves past it and is only ever appended to behind it.
func distributeLocked(b *netBatch, ws []*remoteWorker, sends []sendChunk, mean time.Duration) []sendChunk {
	left := len(b.pending)
	for _, rw := range ws {
		if n := min(rw.capacity-len(rw.inflight), left); n > 0 {
			rw.planned = n
			left -= n
		}
	}
	for _, rw := range ws {
		if left == 0 {
			break
		}
		depth := targetDepth(rw.capacity, &b.opts, mean)
		if spare := depth - len(rw.inflight) - rw.planned; spare > 0 && 2*spare >= depth {
			n := min(spare, left)
			rw.planned += n
			left -= n
		}
	}
	for _, rw := range ws {
		n := rw.planned
		if n == 0 {
			continue
		}
		rw.planned = 0
		ck := b.pending[:n:n]
		b.pending = b.pending[n:]
		for _, t := range ck {
			rw.inflight[t.Index] = t
		}
		sends = append(sends, sendChunk{rw, ck})
	}
	return sends
}

// planStealLocked picks the stealing victim: the most backlogged worker
// (queued tasks beyond its execution slots; ties break to the oldest
// registration, since ws is in id order) while at least one other worker
// has a free execution slot.  It marks the victim as mid-revoke — at most
// one steal is in flight per worker, and none is planned while any is
// outstanding elsewhere, keeping every task's custody unambiguous.
// Callers hold Leader.mu.
func planStealLocked(ws []*remoteWorker) (*remoteWorker, int) {
	idle := 0
	for _, rw := range ws {
		if free := rw.capacity - len(rw.inflight); free > 0 {
			idle += free
		}
	}
	if idle == 0 {
		return nil, 0
	}
	var victim *remoteWorker
	backlog := 0
	for _, rw := range ws {
		if bl := len(rw.inflight) - rw.capacity; bl > backlog {
			backlog, victim = bl, rw
		}
	}
	if victim == nil {
		return nil, 0
	}
	count := backlog
	if count > idle {
		count = idle
	}
	victim.revoking = true
	return victim, count
}

// planSpeculationLocked duplicates the batch's unfinished tail onto idle
// execution slots: once fewer tasks remain than the cluster has slots, each
// unfinished, not-yet-duplicated task is copied to one worker (in id order)
// with a free slot that is not its current owner.  The first result per
// index wins in deliver; duplicates never enter b.results twice, so the
// caller's accounting sees exactly one result per task.  Callers hold
// Leader.mu.
func (l *Leader) planSpeculationLocked(b *netBatch, ws []*remoteWorker) []sendChunk {
	capacity := 0
	for _, rw := range ws {
		capacity += rw.capacity
	}
	if b.remaining > capacity {
		return nil
	}
	var sends []sendChunk
	for idx := 0; idx < len(b.got); idx++ {
		if b.got[idx] {
			continue
		}
		if _, dup := b.spec[idx]; dup {
			continue
		}
		owner := l.assigneeLocked(idx)
		if owner == nil {
			continue
		}
		var target *remoteWorker
		for _, rw := range ws {
			if rw == owner || rw.capacity-len(rw.inflight) <= 0 {
				continue
			}
			target = rw
			break
		}
		if target == nil {
			continue
		}
		if b.spec == nil {
			b.spec = make(map[int]uint64)
		}
		b.spec[idx] = target.id
		b.stats.SpeculativeDuplicates++
		t := owner.inflight[idx]
		target.inflight[idx] = t
		sends = append(sends, sendChunk{target, []Task{t}})
	}
	return sends
}

// BorrowsTasks implements Borrower: a task is encoded onto the wire in the
// batch loop, and every worker's custody of the batch is cleared before
// RunDispatch returns.
func (l *Leader) BorrowsTasks() {}

// Run implements Transport: it streams the tasks to the registered workers
// and collects one result per task.  If no worker is registered, Run waits
// for one to join (bound the wait with the context or WaitForWorkers).
func (l *Leader) Run(ctx context.Context, tasks []Task, opts BatchOptions) ([]TaskResult, error) {
	return l.RunObserved(ctx, tasks, opts, nil)
}

// RunObserved implements ObservedTransport: observe (when non-nil) receives
// every collected result on the goroutine that recorded it, as workers
// deliver them, in the same order as the returned slice.  It runs under the
// leader's lock, so it must not call the leader's methods.
func (l *Leader) RunObserved(ctx context.Context, tasks []Task, opts BatchOptions, observe func(TaskResult)) ([]TaskResult, error) {
	return l.RunAbortable(ctx, tasks, opts, observe, nil)
}

// RunAbortable implements AbortableTransport: when abort fires, the leader
// converts the batch's unassigned tasks into placeholders and interrupts the
// batch on the workers — cancelling only this batch's in-flight solves,
// never the worker connections — then keeps collecting until every task has
// answered.  The call returns the full result set with a nil error; a
// context cancellation racing the abort takes precedence and is reported as
// usual.
func (l *Leader) RunAbortable(ctx context.Context, tasks []Task, opts BatchOptions, observe func(TaskResult), abort <-chan struct{}) ([]TaskResult, error) {
	results, _, err := l.RunDispatch(ctx, tasks, opts, observe, abort)
	return results, err
}

// RunDispatch implements DispatchTransport: RunAbortable plus the batch's
// adaptive-dispatch statistics.  Stealing and speculation run only when the
// batch options ask for them, so a RunDispatch call with a zero-policy
// BatchOptions behaves — and schedules — exactly like RunAbortable.
func (l *Leader) RunDispatch(ctx context.Context, tasks []Task, opts BatchOptions, observe func(TaskResult), abort <-chan struct{}) ([]TaskResult, DispatchStats, error) {
	if err := checkBatch(tasks, l.formula.NumVars); err != nil {
		return nil, DispatchStats{}, err
	}
	l.runMu.Lock()
	defer l.runMu.Unlock()

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, DispatchStats{}, ErrClosed
	}
	l.batchSeq++
	b := &netBatch{
		id:        l.batchSeq,
		opts:      opts,
		pending:   tasks[:len(tasks):len(tasks)],
		got:       make([]bool, len(tasks)),
		collector: collector{results: resultsFor(opts.Results, len(tasks)), observe: observe, abort: abort},
		remaining: len(tasks),
		wake:      make(chan struct{}, 1),
	}
	l.batch = b
	l.mu.Unlock()

	// The ticker is a backstop for assignment opportunities that produce no
	// wake (and for requeues racing with the loop); every state change also
	// nudges b.wake directly.
	ticker := time.NewTicker(100 * time.Millisecond)
	defer ticker.Stop()
	ctxDone := ctx.Done()
	for {
		l.assign(b)
		l.mu.Lock()
		over := b.remaining == 0 || l.closed
		l.mu.Unlock()
		if over {
			break
		}
		select {
		case <-b.wake:
		case <-ticker.C:
		case <-abort:
			// Planned pruning abort: on the wire a cancellation, but
			// reported as a normal outcome rather than an error.
			abort = nil
			l.cancelBatch(b)
		case <-ctxDone:
			// First cancellation notice.  The loop keeps collecting the
			// in-flight results: workers answer promptly once interrupted,
			// and a hung worker is eventually declared lost by the
			// heartbeat, which converts its tasks into placeholders too.
			ctxDone = nil
			l.cancelBatch(b)
		}
	}
	return l.endBatch(ctx, b)
}

// endBatch unsets the batch and takes what it recorded in one critical
// section, so every result observed is returned and none is recorded after.
// A batch with every answer has nothing live on the workers — a cancelled one
// was interrupted by cancelBatch, a speculation's losing copy discarded by
// deliver — and a worker retires its idle slots when the next batch's first
// chunk arrives.  One that ends with tasks out, because the leader is
// closing, is interrupted on the workers and returns ErrClosed.
func (l *Leader) endBatch(ctx context.Context, b *netBatch) ([]TaskResult, DispatchStats, error) {
	l.mu.Lock()
	l.batch = nil
	results, stats, unanswered := b.results, b.stats, b.remaining > 0
	for _, rw := range l.workers {
		clear(rw.inflight)
		// A steal acknowledgement still in flight refers to a dead batch;
		// don't let it block the next batch's stealing.
		rw.revoking = false
	}
	l.mu.Unlock()
	if unanswered {
		l.broadcastInterrupt(b.id)
		return results, stats, ErrClosed
	}
	return results, stats, ctx.Err()
}
