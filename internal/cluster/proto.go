package cluster

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net"
	"slices"
	"sync"
	"time"

	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/solver"
)

// The wire format.  A connection carries frames in both directions, each one
// message:
//
//	frame = length (4 bytes, big endian, 1..maxFrame) body
//	body  = kind (1 byte) fields
//
// with the fields of each kind in this order and nothing after them:
//
//	hello     proto:int capacity:int name:string
//	welcome   formula heartbeat:int
//	tasks     batch:uint opts:batchOptions nTasks:count nLits:count { task }
//	result    batch:uint result
//	interrupt batch:uint
//	ping, pong
//	stop      err:string
//	revoke    batch:uint max:int discard:byte nIndices:count { index:int }
//	revoked   batch:uint nIndices:count { index:int }
//
//	formula       numVars:int nClauses:count nLits:count { len:count { lit } } nComments:count { string }
//	batchOptions  stop:int flags:byte (1 retain, 2 steal, 4 speculate) maxConflicts:uint
//	              maxPropagations:uint costMetric:int
//	task          index:int len:count { lit }
//	result        index:int cost:float status:int flags:byte (1 started, 2 interrupted,
//	              4 cancelled) nModel:count { byte } nActivity:count { varDelta:uint } { act:float }
//	              stats: decisions propagations conflicts restarts learned removed reduceDBs
//	              arenaBytes :uint maxLevel:int solveTime:int
//
// uint is an unsigned LEB128 varint, int and lit its zig-zag signed form,
// string a count and that many bytes.  float is the IEEE 754 bit pattern
// with its bytes reversed, as a uint: the costs and activities on this wire
// are mostly small whole numbers, whose low mantissa bytes are zero, so they
// take two to four bytes instead of eight.  varDelta is the distance from
// the previous variable of the ascending activity vector (from 0 for the
// first).  A task is its index and its assumptions: the formula travels
// once, in the welcome, and holds for every task of the connection; every
// worker solves with solver.DefaultOptions.  A count is a uint that is
// checked against the bytes left in the frame before anything is allocated
// for it — every element takes at least one byte, a task two — so a frame
// cannot make its reader allocate more than a small multiple of the frame's
// own length, and the reader's buffer grows with the bytes that have
// arrived, not with the length a peer announces.
//
// Decoding is strict: an unknown kind, a truncated field, a count beyond the
// frame, a literal 0, a formula with a negative variable count or a literal
// over a variable beyond it, or bytes after the last field make the frame
// malformed, and a malformed frame is a connection error like a failed read
// (the leader drops the worker and requeues what it held).  Tasks and results
// are held to the formula the connection was welcomed with as well, where
// they are decoded: a task assumes literals over its variables only, a result
// reports activity for its variables only, and a result's cost and activities
// are finite and not negative.
//
// A received result's activity vector and a received chunk's assumptions live
// in the connection's buffers until the next frame is read: neither costs its
// receiver an allocation of its own.  The worker copies a chunk's assumption
// bytes, as the frame spelled them, into its queue's arena, and a slot decodes
// them when it takes the task.
//
// Frames may share a write.  The stream is the frames in the order of the
// calls that produced them, and nothing in the protocol depends on where one
// write ends.  The leader writes every frame as it is produced.  A worker
// holds its results back (wire.queue) and writes what it holds in one Write:
// when a solving slot finds the local queue empty or exits, when flushBytes
// are held, when flushEvery has passed since the connection's last write —
// so the first result of a batch leaves at once — and, for what a slot left
// behind when its next task turned out long, from a timer (flushBackstop).
// Every other frame of the worker (pong, revoked) goes out behind the held
// results in the same Write.  A worker that is going down writes nothing
// more: what it held is requeued from the dropped connection, like the task
// it was solving.

// protocolVersion guards against mixing incompatible leader and worker
// binaries; bump it whenever the frame layout, a message kind's number or
// the meaning of a field changes.  There is no negotiation and no support
// for older versions: a mismatch is rejected at registration (checkHello),
// and leader and worker ship as one binary.  The hello frame keeps its place
// and its first field across versions, so that the rejection can say why.
const protocolVersion = 11

// maxFrame bounds the body of one frame.  The largest legitimate frame is
// the welcome, which carries the formula (about 1.2 MB for the benchmark's
// Bivium instance).
const maxFrame = 1 << 30

// readStep is the least the read buffer grows by while a frame larger than
// it arrives; keepRead is the largest read buffer kept from one frame to the
// next (the welcome is the one large frame of a connection); keepActivity and
// keepTasks are the most entries kept of the buffers that results' activity
// vectors and chunks' task lists are decoded into, which is what a frame of
// keepRead bytes can hold of either.
const (
	readStep     = 4096
	keepRead     = 64 << 10
	keepActivity = keepRead / 2
	keepTasks    = keepRead / 2
)

// errFrame is the cause of every malformed-frame error.
var errFrame = errors.New("cluster: malformed frame")

// The return path's pacing, "send much and seldom" applied to the results of
// 50 to 70 µs solves.  With a write per result BenchmarkLoopbackDispatch's
// batch of 2500 reads 48.2 µs a task with 12.4% of its CPU samples in the
// write syscall; with these values 37.9 µs and 2.3%.  They sit on a flat
// part: wall_s of the benchmark's bivium-estimate-tcp / a51-search-tcp,
// median of three runs, read 0.543 / 0.271 at a flushEvery of 100 µs and
// 0.537 / 0.273 at 200 µs, and 400 µs stayed within 2% of 200 µs.
const (
	// flushEvery is the least time between two writes of queued frames while
	// there is more to do: a rate limit, not a delay — the first frame after
	// a pause leaves at once.
	flushEvery = 200 * time.Microsecond
	// flushBytes of queued frames are written whatever the clock says.
	flushBytes = 16 << 10
	// flushBackstop after a frame was queued and held, a timer writes it if
	// nothing else has: the slot that queued it may be inside a long solve.
	flushBackstop = 5 * flushEvery
)

// Wire timeouts shared by both sides.
const (
	defaultHeartbeat = 1 * time.Second
	dialTimeout      = 5 * time.Second
	handshakeTimeout = 10 * time.Second
	writeTimeout     = 15 * time.Second
	// readGraceFactor scales the heartbeat interval into a read deadline:
	// each side hears from its peer at least once per heartbeat (pings one
	// way, pongs the other), so a silence of several intervals means the
	// peer or the link is gone.
	readGraceFactor = 5
)

// msgKind discriminates envelope payloads.
type msgKind uint8

const (
	// kindHello is the worker's registration: protocol version + capacity.
	kindHello msgKind = iota + 1
	// kindWelcome is the leader's reply: the formula and the heartbeat
	// interval.
	kindWelcome
	// kindTasks streams a chunk of a batch to a worker, with the batch's
	// options.
	kindTasks
	// kindResult returns one task result to the leader.
	kindResult
	// kindInterrupt tells a worker to abandon a batch: interrupt in-flight
	// solves, drain queued tasks as placeholders.  It is the non-blocking
	// leader→worker message of the paper's modified MiniSat, sent for a
	// cancellation, a stop-on-SAT and the evaluation engine's planned abort
	// alike; the worker keeps its connection and pooled solvers, only the
	// batch dies.
	kindInterrupt
	// kindPing / kindPong are heartbeats (leader pings, worker pongs).
	kindPing
	kindPong
	// kindStop shuts a worker down for good (leader closing).
	kindStop
	// kindRevoke takes tasks back from a worker.  In its stealing form
	// (Count > 0) the worker removes up to Count not-yet-started tasks from
	// the back of its local queue and acknowledges them with kindRevoked;
	// only that acknowledgement moves a task back onto the leader's pending
	// queue, so a task is never simultaneously queued on the leader and
	// live on a worker.  In its discard form (Discard, explicit Indices)
	// the worker silently drops the listed tasks — interrupting them
	// mid-solve if they already started — without replying: the leader has
	// already recorded another copy's result (speculation loser cleanup).
	kindRevoke
	// kindRevoked is the worker's steal acknowledgement: the indices
	// it actually gave back (possibly none, if the queue drained first).
	kindRevoked
)

// envelope is the single message type exchanged on a cluster connection;
// Kind selects which fields are meaningful, and only those travel.
type envelope struct {
	Kind msgKind

	// kindHello
	Proto    int
	Capacity int
	Name     string

	// kindWelcome (both always present)
	Formula   *cnf.Formula
	Heartbeat time.Duration

	// kindTasks / kindResult / kindInterrupt / kindRevoke / kindRevoked
	Batch uint64
	// kindTasks (always present; nil is sent as the zero options).  Tasks is
	// what a leader sends; Queued is the same chunk as a worker receives it.
	Opts   *BatchOptions
	Tasks  []Task
	Queued []queuedTask

	// kindResult (always present; nil is sent as the zero result)
	Result *TaskResult

	// kindRevoke / kindRevoked
	//
	// Count is the stealing form's upper bound on how many queued tasks to
	// give back; Indices carries the discard form's targets and the
	// acknowledgement's actual task indices; Discard selects the discard
	// form (drop/interrupt, no acknowledgement, no requeue).
	Count   int
	Indices []int
	Discard bool

	// kindStop
	Err string
}

// wire frames one duplex connection.  Any goroutine may send: frames are
// appended to one pending buffer under mu, and a write — serialized and
// deadline-guarded — takes everything pending, so the stream carries the
// frames in the order of the calls whether a call wrote at once (send) or
// left its frame for a later write (queue).  recv is for the connection's one
// reading goroutine.
type wire struct {
	conn net.Conn
	br   *bufio.Reader

	mu        sync.Mutex
	wbuf      []byte      // guarded by mu; the frames not yet written
	lastFlush time.Time   // guarded by mu; when wbuf was last written
	backstop  *time.Timer // guarded by mu; writes what queue left behind, nil until needed
	armed     bool        // guarded by mu; backstop is set and has not run

	// numVars is the variable count of the formula the connection was welcomed
	// with: what a task may assume and a result may report activity for.  The
	// leader sets it when it accepts the connection, the worker when the
	// welcome arrives; before that no frame with a literal is in order.
	numVars int

	// The reader's state: the length prefix, the frame body and what it
	// decodes into.
	hdr  [4]byte
	rbuf []byte
	in   struct {
		env   envelope
		opts  BatchOptions
		res   TaskResult
		tasks []queuedTask
	}
}

func newWire(conn net.Conn) *wire {
	return &wire{conn: conn, br: bufio.NewReader(conn)}
}

// send encodes one envelope and writes it, behind whatever is pending, under
// the write deadline.
func (w *wire) send(env *envelope) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.appendLocked(env); err != nil {
		return err
	}
	return w.flushLocked(time.Now())
}

// queue encodes one envelope and leaves it pending for the next write, which
// is this call if flushBytes are pending or the last write is flushEvery ago.
// Whoever queues sees to it that a flush or a send follows when it has
// nothing more to add; the backstop timer covers the time until then.
func (w *wire) queue(env *envelope) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.appendLocked(env); err != nil {
		return err
	}
	now := time.Now()
	if len(w.wbuf) >= flushBytes || now.Sub(w.lastFlush) >= flushEvery {
		return w.flushLocked(now)
	}
	if !w.armed {
		w.armed = true
		if w.backstop == nil {
			w.backstop = time.AfterFunc(flushBackstop, w.backstopFlush)
		} else {
			w.backstop.Reset(flushBackstop)
		}
	}
	return nil
}

// flush writes what is pending.
func (w *wire) flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.flushLocked(time.Now())
}

// backstopFlush is the timer's flush.  A failed write is the connection's
// end, which its reader reports.
func (w *wire) backstopFlush() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.armed = false
	_ = w.flushLocked(time.Now())
}

// sendFrame writes a frame that appendFrame built earlier.
func (w *wire) sendFrame(frame []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	now := time.Now()
	if err := w.flushLocked(now); err != nil {
		return err
	}
	return w.writeLocked(frame, now)
}

// requires mu
func (w *wire) appendLocked(env *envelope) error {
	buf, err := appendFrame(w.wbuf, env)
	if err != nil {
		return err
	}
	w.wbuf = buf
	return nil
}

// requires mu
func (w *wire) flushLocked(now time.Time) error {
	if len(w.wbuf) == 0 {
		return nil
	}
	w.lastFlush = now
	err := w.writeLocked(w.wbuf, now)
	w.wbuf = w.wbuf[:0]
	return err
}

// requires mu
func (w *wire) writeLocked(frames []byte, now time.Time) error {
	if err := w.conn.SetWriteDeadline(now.Add(writeTimeout)); err != nil {
		return err
	}
	_, err := w.conn.Write(frames)
	return err
}

// recv reads and decodes one frame, allowing at most timeout of silence (0
// means no deadline).  The envelope it returns, with the BatchOptions and
// TaskResult it points to, that result's activity vector, the list of a
// chunk's tasks and their assumption bytes, belongs to the wire and is
// overwritten by the next recv; the formula, strings, index lists and a
// result's model are the caller's to keep.
func (w *wire) recv(timeout time.Duration) (*envelope, error) {
	// A frame that is already in the buffer is not silence, and is returned
	// without a read: the deadline is renewed only ahead of a recv that may
	// wait for the connection.
	if !w.frameBuffered() {
		var deadline time.Time
		if timeout > 0 {
			deadline = time.Now().Add(timeout)
		}
		if err := w.conn.SetReadDeadline(deadline); err != nil {
			return nil, err
		}
	}
	if _, err := io.ReadFull(w.br, w.hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(w.hdr[:])
	if n == 0 || n > maxFrame {
		return nil, fmt.Errorf("%w: length prefix %d outside 1..%d", errFrame, n, maxFrame)
	}
	body, err := w.readBody(int(n))
	if err != nil {
		return nil, err
	}
	in := &w.in
	err = decodeBody(body, w.numVars, &in.env, &in.opts, &in.res, &in.tasks)
	if cap(w.rbuf) > keepRead {
		w.rbuf = nil // a chunk's assumptions may point into it; they keep it until they go
	}
	if err != nil {
		return nil, err
	}
	if in.env.Kind == kindWelcome {
		w.numVars = in.env.Formula.NumVars
	}
	return &in.env, nil
}

// frameBuffered reports whether the next frame can be returned from the read
// buffer alone.
func (w *wire) frameBuffered() bool {
	if w.br.Buffered() < len(w.hdr) {
		return false
	}
	hdr, _ := w.br.Peek(len(w.hdr)) // cannot fail: the bytes are there
	return uint64(w.br.Buffered()-len(w.hdr)) >= uint64(binary.BigEndian.Uint32(hdr))
}

// readBody reads the n bytes of a frame body into the reused read buffer.
// A body larger than the buffer is read in steps, each at most doubling the
// buffer, so that memory follows the bytes received and a length prefix
// alone costs its sender's peer nothing.
func (w *wire) readBody(n int) ([]byte, error) {
	buf := w.rbuf[:0]
	for len(buf) < n {
		next := min(n, max(2*len(buf), cap(buf), readStep))
		buf = slices.Grow(buf, next-len(buf))
		got, err := io.ReadFull(w.br, buf[len(buf):next])
		buf = buf[:len(buf)+got]
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	w.rbuf = buf
	return buf, nil
}

func (w *wire) close() error { return w.conn.Close() }

// helloFor builds a worker registration message.
func helloFor(name string, capacity int) *envelope {
	return &envelope{Kind: kindHello, Proto: protocolVersion, Capacity: capacity, Name: name}
}

// checkHello validates a registration.
func checkHello(env *envelope) error {
	if env.Kind != kindHello {
		return fmt.Errorf("cluster: expected hello, got message kind %d", env.Kind)
	}
	if env.Proto != protocolVersion {
		return fmt.Errorf("cluster: protocol version mismatch: leader speaks %d, worker %d",
			protocolVersion, env.Proto)
	}
	if env.Capacity <= 0 {
		return fmt.Errorf("cluster: worker registered with non-positive capacity %d", env.Capacity)
	}
	return nil
}

// appendFrame appends the frame of one envelope to dst.  It allocates only
// to grow dst, and fails only on a message too large for a frame.
func appendFrame(dst []byte, env *envelope) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, byte(env.Kind))
	switch env.Kind {
	case kindHello:
		dst = appendInt(dst, env.Proto)
		dst = appendInt(dst, env.Capacity)
		dst = appendString(dst, env.Name)
	case kindWelcome:
		dst = appendFormula(dst, env.Formula)
		dst = binary.AppendVarint(dst, int64(env.Heartbeat))
	case kindTasks:
		dst = binary.AppendUvarint(dst, env.Batch)
		bo := env.Opts
		if bo == nil {
			bo = new(BatchOptions)
		}
		dst = appendBatchOptions(dst, bo)
		lits := 0
		for i := range env.Tasks {
			lits += len(env.Tasks[i].Assumptions)
		}
		dst = binary.AppendUvarint(dst, uint64(len(env.Tasks)))
		dst = binary.AppendUvarint(dst, uint64(lits))
		for i := range env.Tasks {
			dst = appendTask(dst, &env.Tasks[i])
		}
	case kindResult:
		dst = binary.AppendUvarint(dst, env.Batch)
		res := env.Result
		if res == nil {
			res = new(TaskResult)
		}
		dst = appendResult(dst, res)
	case kindInterrupt:
		dst = binary.AppendUvarint(dst, env.Batch)
	case kindStop:
		dst = appendString(dst, env.Err)
	case kindRevoke:
		dst = binary.AppendUvarint(dst, env.Batch)
		dst = appendInt(dst, env.Count)
		dst = append(dst, flagBits(env.Discard))
		dst = appendInts(dst, env.Indices)
	case kindRevoked:
		dst = binary.AppendUvarint(dst, env.Batch)
		dst = appendInts(dst, env.Indices)
	}
	n := len(dst) - start - 4
	if n > maxFrame {
		return nil, fmt.Errorf("cluster: a kind-%d message of %d bytes exceeds the frame limit of %d", env.Kind, n, maxFrame)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(n))
	return dst, nil
}

func appendInt(dst []byte, v int) []byte { return binary.AppendVarint(dst, int64(v)) }

func appendInts(dst []byte, vs []int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = appendInt(dst, v)
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendFloat(dst []byte, f float64) []byte {
	return binary.AppendUvarint(dst, bits.ReverseBytes64(math.Float64bits(f)))
}

func appendLits(dst []byte, lits []cnf.Lit) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(lits)))
	for _, l := range lits {
		dst = appendInt(dst, int(l))
	}
	return dst
}

// flagBits packs up to eight booleans into a byte, the first one lowest.
func flagBits(flags ...bool) byte {
	var b byte
	for i, f := range flags {
		if f {
			b |= 1 << i
		}
	}
	return b
}

func appendFormula(dst []byte, f *cnf.Formula) []byte {
	if f == nil {
		f = new(cnf.Formula)
	}
	lits := 0
	for _, c := range f.Clauses {
		lits += len(c)
	}
	dst = appendInt(dst, f.NumVars)
	dst = binary.AppendUvarint(dst, uint64(len(f.Clauses)))
	dst = binary.AppendUvarint(dst, uint64(lits))
	for _, c := range f.Clauses {
		dst = appendLits(dst, c)
	}
	dst = binary.AppendUvarint(dst, uint64(len(f.Comments)))
	for _, c := range f.Comments {
		dst = appendString(dst, c)
	}
	return dst
}

func appendBatchOptions(dst []byte, o *BatchOptions) []byte {
	dst = appendInt(dst, int(o.Stop))
	dst = append(dst, flagBits(o.Retain, o.Steal, o.Speculate))
	dst = binary.AppendUvarint(dst, o.Budget.MaxConflicts)
	dst = binary.AppendUvarint(dst, o.Budget.MaxPropagations)
	return appendInt(dst, int(o.CostMetric))
}

func appendTask(dst []byte, t *Task) []byte {
	dst = appendInt(dst, t.Index)
	return appendLits(dst, t.Assumptions)
}

func appendResult(dst []byte, r *TaskResult) []byte {
	dst = appendInt(dst, r.Index)
	dst = appendFloat(dst, r.Cost)
	dst = appendInt(dst, int(r.Status))
	dst = append(dst, flagBits(r.Started, r.Interrupted, r.Cancelled))
	dst = binary.AppendUvarint(dst, uint64(len(r.Model)))
	for _, v := range r.Model {
		dst = append(dst, byte(v))
	}
	// A sparse vector is pairs; an entry without its partner says nothing.
	n := min(len(r.Activity.Vars), len(r.Activity.Acts))
	dst = binary.AppendUvarint(dst, uint64(n))
	prev := cnf.Var(0)
	for _, v := range r.Activity.Vars[:n] {
		// The difference wraps for a vector that is not ascending, and the
		// decoder's sum wraps back: longer on the wire, still exact.
		dst = binary.AppendUvarint(dst, uint64(v-prev))
		prev = v
	}
	for _, a := range r.Activity.Acts[:n] {
		dst = appendFloat(dst, a)
	}
	st := &r.Stats
	for _, c := range [...]uint64{st.Decisions, st.Propagations, st.Conflicts, st.Restarts, st.Learned, st.Removed,
		st.ReduceDBs, st.ArenaBytes} {
		dst = binary.AppendUvarint(dst, c)
	}
	dst = appendInt(dst, st.MaxLevel)
	return binary.AppendVarint(dst, int64(st.SolveTime))
}

// decoder reads the fields of one frame body.  The first failure sticks:
// every later read returns zero, and decodeBody reports err once.
type decoder struct {
	b []byte
	// numVars bounds the variables of a task's assumptions and of a result's
	// activity vector, and is the size of a SAT's model (wire.numVars).
	numVars int
	err     error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", errFrame, what)
	}
	d.b = nil
}

func (d *decoder) byte() byte {
	if len(d.b) == 0 {
		d.fail("truncated")
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

func (d *decoder) uint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("truncated or overlong varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) int64() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("truncated or overlong varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) int() int {
	v := d.int64()
	if int64(int(v)) != v {
		d.fail("integer out of range")
		return 0
	}
	return int(v)
}

func (d *decoder) float() float64 {
	return math.Float64frombits(bits.ReverseBytes64(d.uint()))
}

func (d *decoder) flags(known byte) byte {
	f := d.byte()
	if f&^known != 0 {
		d.fail("unknown flag bit")
	}
	return f
}

// count reads an element count and refuses one the rest of the frame cannot
// hold, every element taking at least elem bytes.
func (d *decoder) count(elem int) int {
	n := d.uint()
	if n > uint64(len(d.b)/elem) {
		d.fail("element count larger than the frame")
		return 0
	}
	return int(n)
}

func (d *decoder) string() string {
	n := d.count(1)
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *decoder) ints() []int {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = d.int()
	}
	return out
}

// litVectors reads the lengths of what follows: how many literal vectors (a
// formula's clauses) and how many literals in all of them.  The vectors are
// cut from one array of that size.
func (d *decoder) litVectors() (vectors int, backing []cnf.Lit) {
	vectors = d.count(1)
	if n := d.count(1); n > 0 {
		backing = make([]cnf.Lit, n)
	}
	return vectors, backing
}

// lits reads one literal vector into the front of backing and returns it,
// capped at its own length so that appending to it cannot reach its
// neighbour, with the rest of backing.
func (d *decoder) lits(backing []cnf.Lit) (vec, rest []cnf.Lit) {
	n := d.count(1)
	if n > len(backing) {
		d.fail("literal vectors longer than the announced total")
		return nil, nil
	}
	if n == 0 {
		return nil, backing
	}
	vec = backing[:n:n]
	for i := range vec {
		vec[i] = cnf.Lit(d.int())
		if vec[i] == 0 {
			d.fail("zero literal")
		}
	}
	return vec, backing[n:]
}

// litsDone checks that the vectors used up the announced total.
func (d *decoder) litsDone(rest []cnf.Lit) {
	if len(rest) != 0 {
		d.fail("literal vectors shorter than the announced total")
	}
}

// formula reads a formula whose clauses stay within its own variable count:
// the solver grows to the largest variable it meets, so a clause naming one
// that a varint can spell would have a worker allocate for it, and tasks are
// held to NumVars (decoder.tasks).
func (d *decoder) formula() *cnf.Formula {
	f := &cnf.Formula{NumVars: d.int()}
	if f.NumVars < 0 {
		d.fail("negative variable count")
	}
	nClauses, backing := d.litVectors()
	if nClauses > 0 {
		f.Clauses = make([]cnf.Clause, nClauses)
	}
	for i := range f.Clauses {
		f.Clauses[i], backing = d.lits(backing)
		for _, l := range f.Clauses[i] {
			if v := l.Var(); v < 1 || v > cnf.Var(f.NumVars) { // below 1: the least int
				d.fail("clause over a variable beyond the formula's count")
			}
		}
	}
	d.litsDone(backing)
	if n := d.count(1); n > 0 {
		f.Comments = make([]string, n)
		for i := range f.Comments {
			f.Comments[i] = d.string()
		}
	}
	return f
}

func (d *decoder) batchOptions(o *BatchOptions) {
	o.Stop = StopMode(d.int())
	f := d.flags(7)
	o.Retain, o.Steal, o.Speculate = f&1 != 0, f&2 != 0, f&4 != 0
	o.Budget.MaxConflicts = d.uint()
	o.Budget.MaxPropagations = d.uint()
	o.CostMetric = solver.CostMetric(d.int())
}

// queuedTask is a task as a worker holds it from the frame that brought it to
// the slot that solves it: the assumptions stay bytes as the frame spelled
// them, checked on receipt, and a slot decodes them into its own buffer when
// it takes the task (a literal is one or two bytes here and eight in a Task).
// Decoded, the bytes are the frame's own; the worker's queue copies them into
// its arena (taskQueue.push) before the next frame is read.
type queuedTask struct {
	index int
	// lits is the assumption vector as zig-zag varints, every one of them a
	// literal over a variable of the formula.
	lits []byte
}

// appendAssumptions appends the task's assumptions to dst.
func (q *queuedTask) appendAssumptions(dst []cnf.Lit) []cnf.Lit {
	for b := q.lits; len(b) > 0; {
		l, n := binary.Varint(b) // cannot fail: checked on receipt
		dst = append(dst, cnf.Lit(l))
		b = b[n:]
	}
	return dst
}

// tasks reads a chunk — the last field of its frame — for the worker's queue,
// over the list the previous chunk was read into.  It allocates nothing: each
// task's assumption bytes are cut from the frame itself, which its receiver
// copies into the arena of the queue that takes the chunk.  An assumption that
// is not a literal of the formula is refused here: the solver would index with
// a 0, and allocate for a variable it does not have up to whatever a varint
// can name.  No leader sends one.
func (d *decoder) tasks(tasks []queuedTask) []queuedTask {
	n := d.count(2) // index, assumption count
	total := d.count(1)
	tasks = slices.Grow(tasks[:0], n)[:n]
	for i := range tasks {
		t := &tasks[i]
		*t = queuedTask{index: d.int()}
		lits := d.count(1)
		if lits > total {
			d.fail("literal vectors longer than the announced total")
			return tasks
		}
		total -= lits
		from := d.b
		for ; lits > 0; lits-- {
			l := cnf.Lit(d.int())
			if v := l.Var(); (v < 1 || int(v) > d.numVars) && d.err == nil { // below 1: zero, or the least int
				d.fail(fmt.Sprintf("task %d assumes literal %d, the formula has %d variables", t.index, l, d.numVars))
			}
		}
		t.lits = from[:len(from)-len(d.b)]
	}
	if total != 0 {
		d.fail("literal vectors shorter than the announced total")
	}
	return tasks
}

// result reads a result into r, its activity vector into the arrays r brings
// along.  What a worker reports is summed into the leader's estimates, so it
// is checked here, against the formula the connection was welcomed with: a
// cost and activities that are finite and not negative (a NaN would make
// every later comparison with the running sum false), over variables the
// formula has.
func (d *decoder) result(r *TaskResult) {
	r.Index = d.int()
	r.Cost = d.float()
	if !(r.Cost >= 0) || math.IsInf(r.Cost, 1) {
		d.fail("cost that is negative or not finite")
	}
	r.Status = solver.Status(d.int())
	if r.Status != solver.Unknown && r.Status != solver.Sat && r.Status != solver.Unsat {
		d.fail("unknown status")
	}
	f := d.flags(7)
	r.Started, r.Interrupted, r.Cancelled = f&1 != 0, f&2 != 0, f&4 != 0
	if n := d.count(1); n > 0 {
		r.Model = make(cnf.Assignment, n)
		for i, v := range d.b[:n] {
			r.Model[i] = cnf.Value(v)
		}
		d.b = d.b[n:]
	}
	if r.Status == solver.Sat && !totalModel(r.Model, d.numVars) {
		d.fail("SAT without a total model")
	}
	act := &r.Activity
	n := d.count(2) // a pair is a variable and its activity
	prev := cnf.Var(0)
	for range n {
		prev += cnf.Var(d.uint())
		if prev < 1 || int(prev) > d.numVars {
			d.fail("activity of a variable the formula does not have")
		}
		act.Vars = append(act.Vars, prev)
	}
	for range n {
		a := d.float()
		if !(a >= 0) || math.IsInf(a, 1) {
			d.fail("activity that is negative or not finite")
		}
		act.Acts = append(act.Acts, a)
	}
	st := &r.Stats
	for _, c := range [...]*uint64{&st.Decisions, &st.Propagations, &st.Conflicts, &st.Restarts, &st.Learned, &st.Removed,
		&st.ReduceDBs, &st.ArenaBytes} {
		*c = d.uint()
	}
	st.MaxLevel = d.int()
	st.SolveTime = time.Duration(d.int64())
}

// totalModel reports whether m gives each of the formula's numVars variables
// true or false, as every model the solver returns does (entry 0 is unused).
func totalModel(m cnf.Assignment, numVars int) bool {
	if len(m) != numVars+1 {
		return false
	}
	for _, v := range m[1:] {
		if v != cnf.True && v != cnf.False {
			return false
		}
	}
	return true
}

// decodeBody decodes one frame body into env, which it overwrites; opts, res
// and tasks are where a tasks frame's options, a result frame's result and a
// chunk's task list go, and numVars is the variable count its literals are
// held to.  What it allocates is what the receiver keeps: the welcome's
// formula, strings, index lists, a result's model.  A result's
// activity vector and a chunk's task list are decoded over the ones res and
// tasks held before, and the tasks' assumptions are bytes of body.
func decodeBody(body []byte, numVars int, env *envelope, opts *BatchOptions, res *TaskResult, tasks *[]queuedTask) error {
	d := decoder{b: body, numVars: numVars}
	*env = envelope{Kind: msgKind(d.byte())}
	switch env.Kind {
	case kindHello:
		env.Proto = d.int()
		env.Capacity = d.int()
		env.Name = d.string()
	case kindWelcome:
		env.Formula = d.formula()
		env.Heartbeat = time.Duration(d.int64())
	case kindTasks:
		env.Batch = d.uint()
		*opts = BatchOptions{}
		d.batchOptions(opts)
		env.Opts = opts
		if cap(*tasks) > keepTasks {
			*tasks = nil
		}
		*tasks = d.tasks(*tasks)
		env.Queued = *tasks
	case kindResult:
		env.Batch = d.uint()
		act := res.Activity.Emptied()
		if cap(act.Vars) > keepActivity {
			act = solver.SparseActivities{}
		}
		*res = TaskResult{Activity: act}
		d.result(res)
		env.Result = res
	case kindInterrupt:
		env.Batch = d.uint()
	case kindPing, kindPong:
	case kindStop:
		env.Err = d.string()
	case kindRevoke:
		env.Batch = d.uint()
		env.Count = d.int()
		env.Discard = d.flags(1) != 0
		env.Indices = d.ints()
	case kindRevoked:
		env.Batch = d.uint()
		env.Indices = d.ints()
	default:
		d.fail(fmt.Sprintf("unknown message kind %d", env.Kind))
	}
	if d.err == nil && len(d.b) != 0 {
		d.fail(fmt.Sprintf("%d bytes after the last field of a kind-%d message", len(d.b), env.Kind))
	}
	return d.err
}
