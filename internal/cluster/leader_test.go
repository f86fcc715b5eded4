package cluster

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"
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
		OnWorkerJoined: func(string, int) { joined <- time.Now() },
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
