package cluster

import (
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/solver"
)

// protocolVersion guards against mixing incompatible leader and worker
// binaries; bump it whenever the envelope, a message kind's number or the
// solver result layout changes incompatibly.  There is no negotiation and
// no support for older versions: a mismatch is rejected at registration
// (checkHello), and leader and worker ship as one binary.
const protocolVersion = 5

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
	// kindWelcome is the leader's reply: the formula, the shared solver
	// options and the heartbeat interval.
	kindWelcome
	// kindTasks streams a chunk of a batch to a worker.
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

// envelope is the single gob-encoded message type exchanged on a cluster
// connection; Kind selects which fields are meaningful.
type envelope struct {
	Kind msgKind

	// kindHello
	Proto    int
	Capacity int
	Name     string

	// kindWelcome
	Formula       *cnf.Formula
	SolverOptions *solver.Options
	Heartbeat     time.Duration

	// kindTasks / kindResult / kindInterrupt
	Batch uint64
	Opts  *BatchOptions
	Tasks []Task

	// kindResult
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

// wire wraps one duplex gob connection with serialized, deadline-guarded
// writes (gob encoders are not safe for concurrent use).
type wire struct {
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
	mu   sync.Mutex
}

func newWire(conn net.Conn) *wire {
	return &wire{conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn)}
}

// send encodes one envelope under the write deadline.
func (w *wire) send(env *envelope) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.conn.SetWriteDeadline(time.Now().Add(writeTimeout)); err != nil {
		return err
	}
	return w.enc.Encode(env)
}

// recv decodes one envelope, allowing at most timeout of silence (0 means
// no deadline).
func (w *wire) recv(timeout time.Duration) (*envelope, error) {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	if err := w.conn.SetReadDeadline(deadline); err != nil {
		return nil, err
	}
	var env envelope
	if err := w.dec.Decode(&env); err != nil {
		return nil, err
	}
	return &env, nil
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
