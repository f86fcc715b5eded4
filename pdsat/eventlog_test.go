package pdsat

import (
	"testing"
	"time"
)

// nextEvent receives one event from a subscription, or fails the test.
func nextEvent(t *testing.T, events <-chan Event) (Event, bool) {
	t.Helper()
	select {
	case e, ok := <-events:
		return e, ok
	case <-time.After(30 * time.Second):
		t.Fatal("the subscriber was not woken")
		return nil, false
	}
}

// TestEventLogAppendWithoutSubscriber: the change channel exists only while
// a subscriber may be waiting on it, so an append nobody follows allocates
// nothing (the log's capacity is reserved and the event boxed beforehand) and
// wakes nobody.
func TestEventLogAppendWithoutSubscriber(t *testing.T) {
	const runs = 1000
	l := newEventLog()
	l.events = make([]Event, 0, runs+2)
	var e Event = SampleProgress{Job: "job-1", Done: 1, Total: 2}
	if allocs := testing.AllocsPerRun(runs, func() { l.append(e) }); allocs != 0 {
		t.Errorf("an append without a subscriber allocates %v times, want 0", allocs)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.change != nil {
		t.Error("the log holds a change channel although nobody has asked for one")
	}
}

// TestEventLogWakesWaitingSubscriber: a subscriber that has delivered
// everything and waits is woken by the next append and by finish, whichever
// snapshot handed it the channel it waits on.
func TestEventLogWakesWaitingSubscriber(t *testing.T) {
	l := newEventLog()
	l.append(SampleProgress{Done: 1})
	l.append(SampleProgress{Done: 2})
	events := l.subscribe(nil)
	for want := 1; want <= 6; want++ {
		if want > 2 {
			// The subscriber has drained the log: it waits, or is about to.
			l.append(SampleProgress{Done: want})
		}
		e, ok := nextEvent(t, events)
		if sp, isProgress := e.(SampleProgress); !ok || !isProgress || sp.Done != want {
			t.Fatalf("event %d of the stream is %#v (open %v)", want, e, ok)
		}
	}
	l.finish(Done{Job: "job-1"})
	if e, ok := nextEvent(t, events); !ok || e != (Done{Job: "job-1"}) {
		t.Fatalf("after finish the stream carries %#v (open %v), want the Done", e, ok)
	}
	if e, ok := nextEvent(t, events); ok {
		t.Fatalf("%#v follows the Done", e)
	}
	l.append(SampleProgress{Done: 7}) // dropped, and no channel to close
}

// TestEventLogReplaysAfterFinish: a subscriber attached to a sealed log still
// sees the whole stream, and then its channel closed.
func TestEventLogReplaysAfterFinish(t *testing.T) {
	l := newEventLog()
	for i := 1; i <= 3; i++ {
		l.append(SampleProgress{Done: i})
	}
	l.finish(Done{})
	for range 2 {
		events := l.subscribe(nil)
		for want := 1; want <= 3; want++ {
			if e, ok := nextEvent(t, events); !ok || e.(SampleProgress).Done != want {
				t.Fatalf("replayed event %d is %#v (open %v)", want, e, ok)
			}
		}
		if e, ok := nextEvent(t, events); !ok || e != (Done{}) {
			t.Fatalf("the replay ends with %#v (open %v), want the Done", e, ok)
		}
		if e, ok := nextEvent(t, events); ok {
			t.Fatalf("%#v follows the Done", e)
		}
	}
}
