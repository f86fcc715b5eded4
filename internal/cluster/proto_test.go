package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/encoder"
	"github.com/paper-repro/pdsat-go/internal/solver"
)

// scriptConn is a net.Conn whose peer is a script: reads come from in (over
// and over when loop is set), writes are counted and dropped, deadlines are
// accepted and ignored.
type scriptConn struct {
	in      []byte
	off     int
	loop    bool
	written int
}

func (c *scriptConn) Read(p []byte) (int, error) {
	if c.off == len(c.in) {
		if !c.loop || len(c.in) == 0 {
			return 0, io.EOF
		}
		c.off = 0
	}
	n := copy(p, c.in[c.off:])
	c.off += n
	return n, nil
}

func (c *scriptConn) Write(p []byte) (int, error)      { c.written += len(p); return len(p), nil }
func (c *scriptConn) Close() error                     { return nil }
func (c *scriptConn) LocalAddr() net.Addr              { return nil }
func (c *scriptConn) RemoteAddr() net.Addr             { return nil }
func (c *scriptConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }

// sameValue compares two decoded values field by field, floats by their
// bits (a NaN equals itself, 0 differs from -0) and a nil slice equal to an
// empty one.
func sameValue(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameValue(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return a.Interface() == b.Interface()
	}
}

// sameEnvelope compares two messages, a chunk of tasks by what it says
// whichever side of the wire holds it.
func sameEnvelope(a, b *envelope) bool {
	return sameValue(reflect.ValueOf(sendable(a)), reflect.ValueOf(sendable(b)))
}

// sendable returns a received message as a leader would send it: the tasks of
// a chunk with their assumptions unpacked.
func sendable(env *envelope) *envelope {
	if env.Queued == nil {
		return env
	}
	out := *env
	out.Queued = nil
	out.Tasks = make([]Task, len(env.Queued))
	for i := range env.Queued {
		q := &env.Queued[i]
		out.Tasks[i] = Task{Index: q.index, Assumptions: q.appendAssumptions(nil)}
	}
	return &out
}

// queued returns tasks as a worker holds them, which is as a frame brought
// them.
func queued(tb testing.TB, tasks []Task) []queuedTask {
	tb.Helper()
	env, err := tableWire(&scriptConn{in: mustFrame(tb, &envelope{Kind: kindTasks, Batch: 1, Opts: &BatchOptions{}, Tasks: tasks})}).recv(time.Second)
	if err != nil {
		tb.Fatal(err)
	}
	return env.Queued
}

// tableVars is the variable count the table's tasks and results are written
// for, and tableWire a wire welcomed with a formula of that many.
const tableVars = 70000

// fullModel is a model that gives every one of n variables a value, as a SAT
// result's must.
func fullModel(n int) cnf.Assignment {
	m := cnf.NewAssignment(n)
	for v := 1; v <= n; v++ {
		m[v] = cnf.True
		if v%3 == 0 {
			m[v] = cnf.False
		}
	}
	return m
}

func tableWire(conn net.Conn) *wire {
	w := newWire(conn)
	w.numVars = tableVars
	return w
}

// distinctStats gives the i-th field of solver.Stats the value 1000+i,
// whatever fields Stats has, so a field the result frame does not carry fails
// the round trip (the table's "result" names the fields it sets, and one it
// does not name is zero at both ends).
func distinctStats() solver.Stats {
	var st solver.Stats
	v := reflect.ValueOf(&st).Elem()
	for i := range v.NumField() {
		switch f := v.Field(i); f.Kind() {
		case reflect.Uint64:
			f.SetUint(uint64(1000 + i))
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(1000 + i))
		default:
			panic("solver.Stats." + v.Type().Field(i).Name + " is a " + f.Kind().String())
		}
	}
	return st
}

// wireTable holds one envelope or more per message kind, with the values
// at the edges of the encoding.
func wireTable() map[string]*envelope {
	maxU := uint64(math.MaxUint64)
	return map[string]*envelope{
		"hello":                   helloFor("wörker-1", 3),
		"hello, nothing sensible": {Kind: kindHello, Proto: -1, Capacity: math.MinInt, Name: ""},
		"welcome": {
			Kind: kindWelcome,
			Formula: &cnf.Formula{
				NumVars:  70000,
				Clauses:  []cnf.Clause{{1, -2, 3}, {}, {-63, 64, -64, 65}, {8191, -8192, 8192, 70000, -70000}, {5}},
				Comments: []string{"generated by a test", "", "c p cnf"},
			},
			Heartbeat: time.Second,
		},
		"welcome, empty formula": {Kind: kindWelcome, Formula: &cnf.Formula{}, Heartbeat: -1},
		"tasks": {
			Kind:  kindTasks,
			Batch: 7,
			Opts: &BatchOptions{
				Stop: StopOnSat, Retain: true, Steal: true, Speculate: true,
				Budget:     solver.Budget{MaxConflicts: maxU, MaxPropagations: 1},
				CostMetric: solver.CostPropagations,
			},
			Tasks: []Task{
				{Index: 0, Assumptions: nil},
				{Index: 1, Assumptions: []cnf.Lit{}},
				{Index: 2499, Assumptions: []cnf.Lit{-1, 63, -64, 64, 8191, -8193, tableVars, -tableVars}},
				{Index: -3, Assumptions: []cnf.Lit{120}},
			},
		},
		"tasks, none": {Kind: kindTasks, Batch: 1, Opts: &BatchOptions{}},
		"result": {
			Kind:  kindResult,
			Batch: maxU,
			Result: &TaskResult{
				Index: 2499, Cost: math.MaxFloat64, Status: solver.Sat,
				Model: fullModel(tableVars),
				Activity: solver.SparseActivities{
					Vars: []cnf.Var{1, 2, 130, 1977, tableVars},
					Acts: []float64{1, 870, math.MaxFloat64, 0, math.SmallestNonzeroFloat64},
				},
				Stats: solver.Stats{
					Decisions: maxU, Propagations: maxU, Conflicts: maxU, Restarts: maxU, Learned: maxU, Removed: maxU,
					ReduceDBs: maxU, ArenaBytes: maxU,
					MaxLevel: math.MaxInt, SolveTime: time.Duration(math.MaxInt64),
				},
				Started: true, Interrupted: true, Cancelled: true,
			},
		},
		"result, every stat":     {Kind: kindResult, Batch: 1, Result: &TaskResult{Index: 3, Cost: 1, Started: true, Stats: distinctStats()}},
		"result, an empty model": {Kind: kindResult, Batch: 1, Result: &TaskResult{Cost: 0.25, Model: cnf.Assignment{}, Started: true}},
		"result, interrupted":    {Kind: kindResult, Batch: 1, Result: &TaskResult{Index: 1, Cost: 1e300, Status: solver.Unsat, Interrupted: true}},
		"result, subnormal":      {Kind: kindResult, Batch: 1, Result: &TaskResult{Index: 2, Cost: math.SmallestNonzeroFloat64, Cancelled: true}},
		"result, unordered activity": {Kind: kindResult, Batch: 1, Result: &TaskResult{
			Activity: solver.SparseActivities{Vars: []cnf.Var{9, 3, 3, 1}, Acts: []float64{1, 2, 3, 4}},
		}},
		"placeholder":       {Kind: kindResult, Batch: 3, Result: &TaskResult{Index: 5, Status: solver.Unknown}},
		"interrupt":         {Kind: kindInterrupt, Batch: maxU},
		"ping":              {Kind: kindPing},
		"pong":              {Kind: kindPong},
		"stop":              {Kind: kindStop},
		"stop, with reason": {Kind: kindStop, Err: "cluster: protocol version mismatch: leader speaks 6, worker 5"},
		"revoke, stealing":  {Kind: kindRevoke, Batch: 9, Count: 5},
		"revoke, discard":   {Kind: kindRevoke, Batch: 9, Discard: true, Indices: []int{0, 7, 2499, -1}},
		"revoked":           {Kind: kindRevoked, Batch: 9, Indices: []int{2499, 2498}},
		"revoked, nothing":  {Kind: kindRevoked, Batch: 9},
	}
}

// badLiteralFrames are frames well-formed in everything but a literal, which
// the encoder does not look at: a 0 among a formula's clauses or a task's
// assumptions, and a formula that does not stay within its own variable
// count — a solver built from it would grow to the variable it names.
func badLiteralFrames(tb testing.TB) map[string][]byte {
	welcome := func(f *cnf.Formula) []byte {
		return mustFrame(tb, &envelope{Kind: kindWelcome, Formula: f, Heartbeat: time.Second})
	}
	return map[string][]byte{
		"zero literal in a clause": welcome(&cnf.Formula{NumVars: 3, Clauses: []cnf.Clause{{1, -2}, {1, 0, -3}}}),
		"zero literal in an assumption vector": mustFrame(tb, &envelope{
			Kind: kindTasks, Batch: 1, Opts: &BatchOptions{},
			Tasks: []Task{{Index: 0, Assumptions: []cnf.Lit{2}}, {Index: 1, Assumptions: []cnf.Lit{-1, 0}}},
		}),
		"clause over a variable beyond the formula's": welcome(&cnf.Formula{NumVars: 3, Clauses: []cnf.Clause{{1, -2}, {3, -500000}}}),
		"clause over variable 2^31":                   welcome(&cnf.Formula{NumVars: 3, Clauses: []cnf.Clause{{1 << 31}}}),
		"clause over the least int":                   welcome(&cnf.Formula{NumVars: 3, Clauses: []cnf.Clause{{2, math.MinInt}}}),
		"clause in a formula without variables":       welcome(&cnf.Formula{Clauses: []cnf.Clause{{1}}}),
		"negative variable count":                     welcome(&cnf.Formula{NumVars: -1}),
	}
}

// badReportFrames are frames well-formed in everything but what they report
// or ask for, which the encoder does not look at either: a cost or an
// activity that a sum must not meet, activity for a variable the formula
// (here of tableVars variables) does not have, a task that assumes one, a
// status that does not exist, a SAT without a value for every variable.
func badReportFrames(tb testing.TB) map[string][]byte {
	result := func(r TaskResult) []byte {
		return mustFrame(tb, &envelope{Kind: kindResult, Batch: 1, Result: &r})
	}
	activity := func(v cnf.Var, a float64) []byte {
		return result(TaskResult{Cost: 1, Started: true, Activity: solver.SparseActivities{Vars: []cnf.Var{2, v}, Acts: []float64{1, a}}})
	}
	assumes := func(l cnf.Lit) []byte {
		return mustFrame(tb, &envelope{Kind: kindTasks, Batch: 1, Opts: &BatchOptions{}, Tasks: []Task{{Index: 0, Assumptions: []cnf.Lit{1, l}}}})
	}
	return map[string][]byte{
		"NaN cost":                         result(TaskResult{Cost: math.NaN(), Started: true}),
		"NaN cost with a payload":          result(TaskResult{Cost: math.Float64frombits(0x7ff8_0000_dead_beef)}),
		"+Inf cost":                        result(TaskResult{Cost: math.Inf(1), Started: true}),
		"-Inf cost":                        result(TaskResult{Cost: math.Inf(-1)}),
		"negative cost":                    result(TaskResult{Cost: -1, Started: true}),
		"NaN activity":                     activity(3, math.NaN()),
		"+Inf activity":                    activity(3, math.Inf(1)),
		"negative activity":                activity(3, -0.5),
		"activity of variable 0":           result(TaskResult{Activity: solver.SparseActivities{Vars: []cnf.Var{0}, Acts: []float64{1}}}),
		"activity of a negative variable":  activity(-4, 1),
		"activity one past the formula":    activity(tableVars+1, 1),
		"activity of variable 2^40":        activity(1<<40, 1),
		"activity that leaves and returns": result(TaskResult{Activity: solver.SparseActivities{Vars: []cnf.Var{5, -1, 7}, Acts: []float64{1, 1, 1}}}),
		"unknown status":                   result(TaskResult{Status: solver.Unsat + 1, Started: true}),
		"SAT without a model":              result(TaskResult{Status: solver.Sat, Started: true}),
		"SAT with a model one short":       result(TaskResult{Status: solver.Sat, Started: true, Model: fullModel(tableVars)[:tableVars]}),
		"SAT with an unassigned variable":  result(TaskResult{Status: solver.Sat, Started: true, Model: slices.Replace(fullModel(tableVars), 7, 8, cnf.Unassigned)}),
		"assumption one past the formula":  assumes(tableVars + 1),
		"assumption over variable 2^40":    assumes(-(1 << 40)),
		"assumption that is the least int": assumes(math.MinInt),
	}
}

// version6Tasks is a task envelope's frame as protocol 6 laid it out: this
// version's, with the queue factor between the batch options and the task
// count.
func version6Tasks(tb testing.TB, env *envelope, factor float64) []byte {
	tb.Helper()
	now := mustFrame(tb, env)
	head := appendBatchOptions(binary.AppendUvarint([]byte{byte(kindTasks)}, env.Batch), env.Opts)
	body := append(appendFloat(head, factor), now[4+len(head):]...)
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// version7Tasks is a task envelope's frame as protocol 7 laid it out: every
// task with a byte behind its index that said whether solver options of its
// own followed (here: none).
func version7Tasks(tb testing.TB, env *envelope) []byte {
	tb.Helper()
	body := appendBatchOptions(binary.AppendUvarint([]byte{byte(kindTasks)}, env.Batch), env.Opts)
	lits := 0
	for _, task := range env.Tasks {
		lits += len(task.Assumptions)
	}
	body = binary.AppendUvarint(binary.AppendUvarint(body, uint64(len(env.Tasks))), uint64(lits))
	for _, task := range env.Tasks {
		body = appendLits(append(appendInt(body, task.Index), 0), task.Assumptions)
	}
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

func mustFrame(tb testing.TB, env *envelope) []byte {
	tb.Helper()
	frame, err := appendFrame(nil, env)
	if err != nil {
		tb.Fatal(err)
	}
	return frame
}

// TestWireRoundTrip sends every envelope of the table through a wire and
// expects an equal value back.
func TestWireRoundTrip(t *testing.T) {
	kinds := map[msgKind]bool{}
	for name, env := range wireTable() {
		kinds[env.Kind] = true
		conn := &scriptConn{}
		if err := newWire(conn).send(env); err != nil {
			t.Fatalf("%s: send: %v", name, err)
		}
		frame := mustFrame(t, env)
		if conn.written != len(frame) {
			t.Fatalf("%s: send wrote %d bytes, the frame has %d", name, conn.written, len(frame))
		}
		// Twice on one wire: the second frame is decoded over the first.
		w := tableWire(&scriptConn{in: append(frame, frame...)})
		for i := 0; i < 2; i++ {
			got, err := w.recv(time.Second)
			if err != nil {
				t.Fatalf("%s: recv %d: %v", name, i, err)
			}
			if !sameEnvelope(env, got) {
				t.Fatalf("%s: recv %d returned\n%+v\nsent\n%+v", name, i, got, env)
			}
		}
		if _, err := w.recv(time.Second); err != io.EOF {
			t.Fatalf("%s: after the last frame: %v, want io.EOF", name, err)
		}
	}
	for k := kindHello; k <= kindRevoked; k++ {
		if !kinds[k] {
			t.Errorf("the table has no message of kind %d", k)
		}
	}
}

// TestWireWelcomesTheBenchmarkFormula: the bound on a formula's literals
// refuses nothing an encoder produces.  The welcome of the benchmark's Bivium
// instance decodes to an equal formula.
func TestWireWelcomesTheBenchmarkFormula(t *testing.T) {
	inst, err := encoder.NewInstance(encoder.Bivium(), encoder.Config{KeystreamLen: 200, KnownSuffix: 57, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sent := &envelope{Kind: kindWelcome, Formula: inst.CNF, Heartbeat: time.Second}
	got, err := newWire(&scriptConn{in: mustFrame(t, sent)}).recv(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !sameEnvelope(sent, got) {
		t.Fatalf("the welcome of a formula of %d variables and %d clauses came back changed", inst.CNF.NumVars, inst.CNF.NumClauses())
	}
}

// TestWireRejectsMalformedFrames lists what the decoder must refuse; each is
// a connection error, never a panic and never a partial message.
func TestWireRejectsMalformedFrames(t *testing.T) {
	frame := func(body ...byte) []byte {
		return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
	}
	result := mustFrame(t, wireTable()["result"])
	huge := binary.AppendUvarint(nil, 1<<40)
	cases := map[string][]byte{
		"empty frame":                    frame(),
		"length prefix over the limit":   binary.BigEndian.AppendUint32(nil, maxFrame+1),
		"unknown kind":                   frame(0),
		"kind after the last":            frame(byte(kindRevoked) + 1),
		"truncated field":                frame(byte(kindHello), 12),
		"trailing byte":                  frame(byte(kindPing), 0),
		"overlong varint":                frame(byte(kindInterrupt), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01),
		"unknown flag bit":               frame(byte(kindRevoke), 1, 0, 2, 0),
		"index count beyond the frame":   frame(append([]byte{byte(kindRevoked), 1}, huge...)...),
		"name length beyond the frame":   frame(append([]byte{byte(kindHello), 12, 2}, huge...)...),
		"task count beyond the frame":    frame(byte(kindTasks), 1, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0),
		"literal total beyond the frame": frame(append([]byte{byte(kindTasks), 1, 0, 0, 0, 0, 0, 0, 0}, huge...)...),
		"assumptions beyond their total": frame(byte(kindTasks), 1, 0, 0, 0, 0, 0, 0, 1, 1, 0, 2, 2, 4),
		"assumptions short of the total": frame(byte(kindTasks), 1, 0, 0, 0, 0, 0, 0, 1, 2, 0, 1, 2),
		"result cut short":               append(binary.BigEndian.AppendUint32(nil, uint32(len(result)-5)), result[4:len(result)-1]...),
	}
	for name, in := range badLiteralFrames(t) {
		cases[name] = in
	}
	for name, in := range badReportFrames(t) {
		cases[name] = in
	}
	// Protocol 6 sent a float, the queue factor, behind the cost metric.  A
	// peer that still does is refused at its hello; its task frame, should
	// one arrive all the same, does not pass for one of this version's.
	for name, factor := range map[string]float64{
		"version 6 task frame without a hint":         0,
		"version 6 task frame, factor 1.5":            1.5,
		"version 6 task frame, factor of eight bytes": math.Float64frombits(0x3FF8123456789A00),
	} {
		cases[name] = version6Tasks(t, wireTable()["tasks"], factor)
	}
	// Protocol 7 let a task bring solver options of its own; the same holds
	// for its frames.
	cases["version 7 task frame, an option byte a task"] = version7Tasks(t, wireTable()["tasks"])
	for name, in := range cases {
		env, err := tableWire(&scriptConn{in: in}).recv(time.Second)
		if !errors.Is(err, errFrame) {
			t.Errorf("%s: recv returned %+v, %v; want a malformed-frame error", name, env, err)
		}
	}
	// A frame that ends early is a failed read, whatever its prefix says.
	for name, in := range map[string][]byte{
		"half a length prefix": {0, 0},
		"body cut short":       result[:len(result)-1],
		"1 GiB announced":      binary.BigEndian.AppendUint32(nil, maxFrame),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := newWire(&scriptConn{in: in}).recv(time.Second)
		runtime.ReadMemStats(&after)
		if err != io.ErrUnexpectedEOF {
			t.Errorf("%s: recv returned %v, want %v", name, err, io.ErrUnexpectedEOF)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: recv allocated %d bytes for %d received", name, grew, len(in))
		}
	}
}

// TestWireSteadyStateAllocs is the regression guard for the per-task cost of
// the wire: once its buffers are warm, sending a task chunk or a result
// allocates nothing, and receiving one allocates only what the receiver keeps,
// a result's model.  A result's activity vector, the list of a chunk's tasks
// and their assumption bytes are lent, not kept; a worker queues a chunk by
// copying the bytes into its queue's arena, warm as well from the batch
// before, so that a tasks frame costs it nothing from the read to the queue.
func TestWireSteadyStateAllocs(t *testing.T) {
	assumptions := make([]cnf.Lit, 120)
	for i := range assumptions {
		assumptions[i] = cnf.NewLit(cnf.Var(i+1), i%3 == 0)
	}
	opts := BatchOptions{CostMetric: solver.CostPropagations, Steal: true, Speculate: true}
	chunk := []Task{{Index: 17, Assumptions: assumptions}, {Index: 18, Assumptions: assumptions}}
	res := TaskResult{
		Index: 17, Cost: 871, Status: solver.Unsat, Started: true,
		Activity: solver.SparseActivities{Vars: []cnf.Var{3, 90, 1500}, Acts: []float64{1, 1, 2}},
		Stats:    solver.Stats{Propagations: 871, Conflicts: 1, Learned: 1, ArenaBytes: 160480, SolveTime: 90 * time.Microsecond},
	}
	plain := TaskResult{Index: 18, Cost: 869, Status: solver.Unsat, Started: true, Stats: solver.Stats{Propagations: 869}}
	sat := res
	// A frame of fewer than keepRead bytes, so the read buffer is kept.
	const satVars = 1977
	sat.Status, sat.Model = solver.Sat, fullModel(satVars)

	out := newWire(&scriptConn{})
	send := func(env func() error) func() {
		return func() {
			if err := env(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The envelopes are built where the leader and the worker build theirs:
	// in the call, pointing at a local.
	for name, tc := range map[string]struct {
		run  func()
		want float64
	}{
		"send tasks":                    {send(func() error { return out.send(&envelope{Kind: kindTasks, Batch: 4, Opts: &opts, Tasks: chunk}) }), 0},
		"send result":                   {send(func() error { r := res; return out.send(&envelope{Kind: kindResult, Batch: 4, Result: &r}) }), 0},
		"recv result":                   {recvLoop(t, tableVars, &envelope{Kind: kindResult, Batch: 4, Result: &res}), 0},
		"recv result without conflicts": {recvLoop(t, tableVars, &envelope{Kind: kindResult, Batch: 4, Result: &plain}), 0},
		"recv SAT result":               {recvLoop(t, satVars, &envelope{Kind: kindResult, Batch: 4, Result: &sat}), 1},
		"recv tasks":                    {recvLoop(t, tableVars, &envelope{Kind: kindTasks, Batch: 4, Opts: &opts, Tasks: chunk}), 0},
		"recv and queue tasks":          {queueLoop(t, &envelope{Kind: kindTasks, Batch: 4, Opts: &opts, Tasks: chunk}), 0},
		"recv ping":                     {recvLoop(t, tableVars, &envelope{Kind: kindPing}), 0},
	} {
		tc.run() // warm the buffers
		if got := testing.AllocsPerRun(200, tc.run); got != tc.want {
			t.Errorf("%s: %v allocations per frame, want %v", name, got, tc.want)
		}
	}
}

// recvLoop returns a function that receives env, again and again, from one
// wire welcomed with a formula of numVars variables.
func recvLoop(t *testing.T, numVars int, env *envelope) func() {
	w := newWire(&scriptConn{in: mustFrame(t, env), loop: true})
	w.numVars = numVars
	return func() {
		if _, err := w.recv(time.Second); err != nil {
			t.Fatal(err)
		}
	}
}

// queueLoop returns a function that receives the chunk env, again and again,
// from one wire and queues it as the first chunk of a new batch, on one queue.
func queueLoop(t *testing.T, env *envelope) func() {
	w := tableWire(&scriptConn{in: mustFrame(t, env), loop: true})
	q := newTaskQueue()
	return func() {
		got, err := w.recv(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		q.reopen()
		q.push(got.Queued)
	}
}

// FuzzWireDecode feeds arbitrary bytes to a wire as if a peer had sent them,
// and queues the chunks it accepts as a worker does: recv must not panic,
// must not allocate more than a small multiple of what it was sent, and
// whatever it accepts must survive another trip unchanged —
// and is fit to be summed and solved: a result's cost and activities finite
// and not negative, its activity and a task's assumptions over variables of
// the formula the wire was welcomed with.
func FuzzWireDecode(f *testing.F) {
	for _, env := range wireTable() {
		f.Add(mustFrame(f, env))
	}
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrame))
	for _, frame := range badLiteralFrames(f) {
		f.Add(frame)
	}
	for _, frame := range badReportFrames(f) {
		f.Add(frame)
	}
	summable := func(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		w := tableWire(&scriptConn{in: data})
		q := newTaskQueue() // a chunk goes on to a queue, as on a worker
		var frames [][]byte
		for {
			env, err := w.recv(time.Second)
			if err != nil {
				break
			}
			if env.Kind == kindTasks {
				q.reopen()
				q.push(env.Queued)
				env.Queued = q.items
			}
			if env.Kind == kindWelcome {
				w.numVars = tableVars // the test's wires are all welcomed with that many
			}
			if res := env.Result; res != nil {
				if !summable(res.Cost) || len(res.Activity.Vars) != len(res.Activity.Acts) {
					t.Fatalf("accepted a result of cost %v with %d activity variables and %d values", res.Cost, len(res.Activity.Vars), len(res.Activity.Acts))
				}
				for i, v := range res.Activity.Vars {
					if v < 1 || v > tableVars || !summable(res.Activity.Acts[i]) {
						t.Fatalf("accepted activity %v of variable %d", res.Activity.Acts[i], v)
					}
				}
			}
			env = sendable(env)
			for _, task := range env.Tasks {
				for _, l := range task.Assumptions {
					if v := l.Var(); v < 1 || v > tableVars {
						t.Fatalf("accepted task %d assuming literal %d", task.Index, l)
					}
				}
			}
			frame, err := appendFrame(nil, env)
			if err != nil {
				t.Fatalf("a decoded message does not encode: %v", err)
			}
			frames = append(frames, frame)
		}
		runtime.ReadMemStats(&after)
		// The dearest element is a task: 32 bytes of Task for 2 on the wire.
		// The re-encoded frames, the wire and its bufio.Reader are inside
		// the allowance too.
		if grew, allowed := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+64<<10); grew > allowed {
			t.Fatalf("%d bytes allocated for %d received, more than %d", grew, len(data), allowed)
		}
		for _, frame := range frames {
			first, err := tableWire(&scriptConn{in: frame}).recv(time.Second)
			if err != nil {
				t.Fatalf("re-encoded frame %x does not decode: %v", frame, err)
			}
			again := mustFrame(t, sendable(first))
			if !bytes.Equal(frame, again) {
				t.Fatalf("re-encoding changed the frame:\n%x\n%x", frame, again)
			}
			second, err := tableWire(&scriptConn{in: again}).recv(time.Second)
			if err != nil || !sameEnvelope(first, second) {
				t.Fatalf("a second trip changed the message (%v):\n%+v\n%+v", err, first, second)
			}
		}
	})
}
