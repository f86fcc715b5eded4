package cluster

import (
	"context"
	"errors"
	"math"
	"net"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/paper-repro/pdsat-go/internal/cnf"
)

// TestRedialDelaySchedule pins the redial backoff shape: the base doubles
// per consecutive failure, caps at maxRedial, and carries a deterministic
// per-worker jitter of at most +50% — so a fleet of workers that lost the
// same leader at the same instant fans out instead of thundering back in
// lockstep, and a restarted worker reproduces its exact schedule.
func TestRedialDelaySchedule(t *testing.T) {
	const base = time.Second
	for attempt := 0; attempt < 12; attempt++ {
		want := base << attempt
		if want > maxRedial || want <= 0 { // <<= overflow guard for the test's own math
			want = maxRedial
		}
		d := redialDelay(base, attempt, "w1")
		if d < want || d > want+want/2 {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, want, want+want/2)
		}
	}

	// Deterministic: the same (base, attempt, name) always maps to the same
	// delay, so restarts replay the exact schedule.
	for attempt := 0; attempt < 6; attempt++ {
		if a, b := redialDelay(base, attempt, "w1"), redialDelay(base, attempt, "w1"); a != b {
			t.Fatalf("attempt %d: nondeterministic delay %v vs %v", attempt, a, b)
		}
	}

	// Decorrelated: differently named workers do not share a schedule.
	same := 0
	for attempt := 0; attempt < 8; attempt++ {
		if redialDelay(base, attempt, "w1") == redialDelay(base, attempt, "w2") {
			same++
		}
	}
	if same == 8 {
		t.Fatal("two differently named workers got an identical redial schedule")
	}

	// No redial configured means no delay.
	if d := redialDelay(0, 3, "w1"); d != 0 {
		t.Fatalf("zero base produced delay %v", d)
	}
}

// TestServeBacksOffAgainstBrokenLeader points a worker at a listener that
// accepts connections and immediately drops them — registration never
// completes, so every dial is a consecutive failure and the worker must walk
// the growing redialDelay schedule (the seed's bug was a fixed 1s retry that
// never backed off).  The waits each WorkerLost event reports in Redial are
// compared against the exact schedule, which also pins that the attempt
// counter is not reset by a connection that merely *connected* without
// registering.
func TestServeBacksOffAgainstBrokenLeader(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conn.Close() // never send a welcome
		}
	}()

	delays := redials(t, ln.Addr().String(), "prober", 5)
	for attempt, d := range delays {
		if want := redialDelay(time.Millisecond, attempt, "prober"); d != want {
			t.Fatalf("redial %d waited %s, want %s (full schedule %v)", attempt, d, want, delays)
		}
	}
}

// TestServeBackoffResetsAfterRegistration checks the other half of the
// backoff contract: a completed registration resets the attempt counter.  A
// scripted leader welcomes every connection and then drops it abruptly (no
// kindStop), so each cycle is register → lose → redial; because every
// connection registered, every redial must use the attempt-0 delay instead
// of the inflated tail the previous failures would otherwise have built up.
func TestServeBackoffResetsAfterRegistration(t *testing.T) {
	f := requeueFormula()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				w := newWire(conn)
				defer w.close()
				if _, err := w.recv(handshakeTimeout); err != nil { // hello
					return
				}
				// A valid welcome completes the registration; closing the
				// connection right after is the abrupt leader death.
				_ = w.send(&envelope{Kind: kindWelcome, Formula: f, Heartbeat: time.Second})
			}(conn)
		}
	}()

	delays := redials(t, ln.Addr().String(), "returner", 4)
	want := redialDelay(time.Millisecond, 0, "returner")
	for i, d := range delays {
		if d != want {
			t.Fatalf("redial %d after a successful registration waited %s, want the attempt-0 delay %s (schedule %v)",
				i, d, want, delays)
		}
	}
}

// redials runs a worker named name against the listener at addr, with a
// redial base of one millisecond, until it has lost its leader n times, and
// returns the waits before the next dial that those WorkerLost events carried.
func redials(t *testing.T, addr, name string, n int) []time.Duration {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var delays []time.Duration // appended on Serve's goroutine, read once it has returned
	done := make(chan error, 1)
	go func() {
		done <- Serve(ctx, addr, WorkerOptions{Capacity: 1, Name: name, Redial: time.Millisecond,
			OnEvent: func(ev ClusterEvent) {
				if ev.Kind != WorkerLost {
					return
				}
				if delays = append(delays, ev.Redial); len(delays) == n {
					cancel()
				}
			}})
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Serve returned %v, want context.Canceled after %d losses", err, n)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("the worker never lost its leader %d times", n)
	}
	return delays
}

// TestWorkerReportsItsLeader: a worker reports its registration, with its
// slots and the leader's address, and its shutdown by the leader as a loss
// with ErrClosed and no redial.
func TestWorkerReportsItsLeader(t *testing.T) {
	leader, err := Listen("127.0.0.1:0", requeueFormula(), LeaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	addr := leader.Addr().String()
	var events []ClusterEvent
	served := make(chan error, 1)
	go func() {
		served <- Serve(context.Background(), addr, WorkerOptions{Capacity: 3, Name: "w", Redial: time.Millisecond,
			OnEvent: func(ev ClusterEvent) { events = append(events, ev) }})
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := leader.WaitForWorkers(ctx, 1); err != nil {
		t.Fatal(err)
	}
	leader.Close()
	if err := <-served; err != nil {
		t.Fatalf("Serve returned %v after the leader shut the worker down", err)
	}
	want := []ClusterEvent{{Kind: WorkerJoined, Worker: "w", Count: 3, Addr: addr}, {Kind: WorkerLost, Worker: "w", Addr: addr, Err: ErrClosed}}
	if !slices.Equal(events, want) {
		t.Fatalf("the worker reported %+v, want %+v", events, want)
	}
}

// TestWorkerReportsWhyItReturns: a worker that returns an error reports it
// first, once — a dial that fails without Redial as a loss with no redial,
// a rejected registration (also with Redial) as a refusal.
func TestWorkerReportsWhyItReturns(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	var events []ClusterEvent
	onEvent := func(ev ClusterEvent) { events = append(events, ev) }
	err = Serve(context.Background(), dead, WorkerOptions{Capacity: 1, Name: "w", OnEvent: onEvent})
	var dialErr *net.OpError
	if !errors.As(err, &dialErr) || dialErr.Op != "dial" {
		t.Fatalf("Serve returned %v against a closed port, want the dial error", err)
	}
	if want := []ClusterEvent{{Kind: WorkerLost, Worker: "w", Addr: dead, Err: err}}; !slices.Equal(events, want) {
		t.Fatalf("the worker reported %+v, want %+v", events, want)
	}

	events = nil
	addr, gone := scriptedLeader(t, &envelope{Kind: kindStop, Err: "protocol version mismatch"})
	err = Serve(context.Background(), addr, WorkerOptions{Capacity: 1, Name: "w", Redial: time.Millisecond, OnEvent: onEvent})
	if !errors.Is(err, ErrRejected) || !strings.Contains(err.Error(), "protocol version mismatch") {
		t.Fatalf("Serve returned %v when the leader rejected it, want %v", err, ErrRejected)
	}
	if want := []ClusterEvent{{Kind: WorkerRefused, Worker: "w", Addr: addr, Err: err}}; !slices.Equal(events, want) {
		t.Fatalf("the worker reported %+v, want %+v", events, want)
	}
	<-gone
}

// TestWorkerRefusesUnknownVariable: a worker does not let its leader's
// literals size its solver.  A scripted leader welcomes the worker and sends
// a chunk that assumes a variable the formula does not have; the worker
// treats that as a protocol error — Serve reports it as the loss of its
// leader and returns it, a real leader requeues what the connection held —
// instead of allocating for the variable (2^30 of them is gigabytes) or
// indexing with what math.MinInt negates to.
func TestWorkerRefusesUnknownVariable(t *testing.T) {
	f := requeueFormula()
	for name, lit := range map[string]cnf.Lit{
		"one past the formula": cnf.Lit(f.NumVars + 1),
		"2^30":                 -(1 << 30),
		"the least int":        math.MinInt,
	} {
		// The worker answers by hanging up, possibly after the first task's
		// result.
		addr, gone := scriptedLeader(t,
			&envelope{Kind: kindWelcome, Formula: f, Heartbeat: time.Second},
			&envelope{Kind: kindTasks, Batch: 1, Opts: &BatchOptions{}, Tasks: []Task{
				{Index: 0, Assumptions: []cnf.Lit{1, -2}},
				{Index: 1, Assumptions: []cnf.Lit{1, lit}},
			}})
		var events []ClusterEvent
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := Serve(context.Background(), addr, WorkerOptions{Capacity: 1, Name: "wary",
			OnEvent: func(ev ClusterEvent) { events = append(events, ev) }})
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "24 variables") {
			t.Errorf("%s: Serve returned %v, want the unknown-variable error", name, err)
		}
		want := []ClusterEvent{{Kind: WorkerJoined, Worker: "wary", Count: 1, Addr: addr}, {Kind: WorkerLost, Worker: "wary", Addr: addr, Err: err}}
		if !slices.Equal(events, want) {
			t.Errorf("%s: the worker reported %+v, want %+v", name, events, want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: the worker allocated %d bytes", name, grew)
		}
		<-gone
	}
}
