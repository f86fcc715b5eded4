package pdsat_test

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"github.com/paper-repro/pdsat-go/internal/cluster"
	"github.com/paper-repro/pdsat-go/pdsat"
)

// collect drains a job's event stream into a slice.
func collect(t *testing.T, events <-chan pdsat.Event) []pdsat.Event {
	t.Helper()
	var out []pdsat.Event
	timeout := time.After(60 * time.Second)
	for {
		select {
		case e, ok := <-events:
			if !ok {
				return out
			}
			out = append(out, e)
		case <-timeout:
			t.Fatalf("event stream did not terminate (got %d events)", len(out))
		}
	}
}

// checkTerminated asserts the ordering contract: exactly one Done event,
// and it is the last one.
func checkTerminated(t *testing.T, events []pdsat.Event) pdsat.Done {
	t.Helper()
	if len(events) == 0 {
		t.Fatal("empty event stream")
	}
	dones := 0
	for _, e := range events {
		if _, ok := e.(pdsat.Done); ok {
			dones++
		}
	}
	if dones != 1 {
		t.Fatalf("stream carries %d Done events, want exactly 1", dones)
	}
	done, ok := events[len(events)-1].(pdsat.Done)
	if !ok {
		t.Fatalf("last event is %T, want Done", events[len(events)-1])
	}
	return done
}

func TestEstimateJobEventStream(t *testing.T) {
	inst := testInstance(t, 52, 30, 1)
	s := newTestSession(t, inst, 16)
	job, err := s.Submit(context.Background(), pdsat.EstimateJob{})
	if err != nil {
		t.Fatal(err)
	}
	if job.ID() == "" || job.Kind() != pdsat.JobEstimate {
		t.Fatalf("job handle: id=%q kind=%q", job.ID(), job.Kind())
	}
	events := collect(t, job.Events())
	done := checkTerminated(t, events)
	if done.Err != "" || done.Cancelled {
		t.Fatalf("unexpected terminal event: %+v", done)
	}

	// 16 SampleProgress events with contiguous counters, in order.
	var progress []pdsat.SampleProgress
	for _, e := range events {
		if sp, ok := e.(pdsat.SampleProgress); ok {
			progress = append(progress, sp)
		}
	}
	if len(progress) != 16 {
		t.Fatalf("got %d SampleProgress events, want 16", len(progress))
	}
	for i, sp := range progress {
		if sp.Done != i+1 || sp.Total != 16 {
			t.Fatalf("progress %d: %+v", i, sp)
		}
		if sp.Job != job.ID() || !sp.Solved {
			t.Fatalf("progress %d: %+v", i, sp)
		}
	}

	// A late subscriber replays the identical stream.
	replay := collect(t, job.Events())
	if len(replay) != len(events) {
		t.Fatalf("replay has %d events, original %d", len(replay), len(events))
	}
	for i := range replay {
		if replay[i] != events[i] {
			// Events with slices (SearchVisit) are not comparable this way,
			// but an estimate stream has only comparable events.
			t.Fatalf("replay diverges at %d: %+v vs %+v", i, replay[i], events[i])
		}
	}
}

func TestSearchJobEmitsVisits(t *testing.T) {
	inst := testInstance(t, 52, 30, 1)
	s := newTestSession(t, inst, 4)
	job, err := s.Submit(context.Background(), pdsat.SearchJob{Method: "tabu"})
	if err != nil {
		t.Fatal(err)
	}
	events := collect(t, job.Events())
	checkTerminated(t, events)

	res, err := job.Result(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Search == nil || res.Search.Result == nil {
		t.Fatal("search job without search result")
	}
	var visits []pdsat.SearchVisit
	samples := 0
	for _, e := range events {
		switch v := e.(type) {
		case pdsat.SearchVisit:
			visits = append(visits, v)
		case pdsat.SampleProgress:
			samples++
		}
	}
	if len(visits) != len(res.Search.Result.Trace) {
		t.Fatalf("got %d SearchVisit events, want %d (one per trace entry)",
			len(visits), len(res.Search.Result.Trace))
	}
	for i, v := range visits {
		want := res.Search.Result.Trace[i]
		if v.Index != want.Index || v.Value != want.Value ||
			v.Accepted != want.Accepted || v.Improved != want.Improved {
			t.Fatalf("visit %d diverges from trace: %+v vs %+v", i, v, want)
		}
	}
	if samples == 0 {
		t.Fatal("search job emitted no sample progress from its evaluations")
	}
}

func TestCancelledJobSingleDone(t *testing.T) {
	inst := testInstance(t, 48, 40, 3)
	s := newTestSession(t, inst, 4)
	// A full family of 2^16 subproblems: plenty of time to cancel.
	job, err := s.Submit(context.Background(), pdsat.SolveJob{})
	if err != nil {
		t.Fatal(err)
	}
	events := job.Events()
	// Wait for the job to make some progress, then cancel it.
	select {
	case <-events:
	case <-time.After(60 * time.Second):
		t.Fatal("no progress before cancel")
	}
	job.Cancel()
	all := collect(t, events)
	done := checkTerminated(t, all)
	if !done.Cancelled {
		t.Fatalf("terminal event not marked cancelled: %+v", done)
	}
	if !job.Finished() {
		t.Fatal("job not finished after stream termination")
	}
	// Cancelling again is a no-op and produces no further events.
	job.Cancel()
	res, _ := job.Result(context.Background())
	if res == nil || res.Solve == nil || !res.Solve.Interrupted {
		t.Fatalf("cancelled solve should return a partial interrupted report, got %+v", res)
	}
}

// TestCancelledSearchSpendsNothing: a search or fleet job submitted with a
// context that is already cancelled certifies no best set, so it has nothing
// to re-estimate either — the session ends with no evaluation and no sample
// planned.  (Until PR 29 a search job re-estimated its +Inf "best" start set
// and left one evaluation and N aborted samples behind.)
func TestCancelledSearchSpendsNothing(t *testing.T) {
	inst := testInstance(t, 48, 40, 3)
	for _, spec := range []pdsat.JobSpec{
		pdsat.SearchJob{},
		pdsat.SearchJob{Method: "sa"},
		pdsat.FleetJob{Members: []pdsat.FleetMemberSpec{{Method: "tabu", Count: 2}}},
	} {
		s := newTestSession(t, inst, 20)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		job, err := s.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := job.Result(context.Background()); err != nil {
			t.Fatalf("%s job: %v", spec.Kind(), err)
		}
		if st := s.Stats(); st.Evaluations != 0 || st.SamplesPlanned != 0 {
			t.Fatalf("%s job left the session at %d evaluations, %d samples planned; want 0 and 0",
				spec.Kind(), st.Evaluations, st.SamplesPlanned)
		}
		s.Close()
	}
}

// TestWorkerEventsBroadcast: PublishClusterEvent reaches every running job as
// one WorkerEvent under each of the four kinds, with the log's worker and
// count as its payload; a refused worker reaches no job, and nothing reaches
// a finished one.
func TestWorkerEventsBroadcast(t *testing.T) {
	inst := testInstance(t, 52, 30, 1)
	s := newTestSession(t, inst, 2000)
	job, err := s.Submit(context.Background(), pdsat.EstimateJob{})
	if err != nil {
		t.Fatal(err)
	}
	s.PublishClusterEvent(pdsat.ClusterEvent{Kind: cluster.WorkerJoined, Worker: "w1", Count: 4})
	s.PublishClusterEvent(pdsat.ClusterEvent{Kind: cluster.WorkerLost, Worker: "w1", Count: 3})
	s.PublishClusterEvent(pdsat.ClusterEvent{Kind: cluster.TaskStolen, Worker: "w2", Count: 5})
	s.PublishClusterEvent(pdsat.ClusterEvent{Kind: cluster.SpeculationWon, Worker: "w3", Count: 1})
	s.PublishClusterEvent(pdsat.ClusterEvent{Kind: cluster.WorkerRefused, Worker: "old", Err: cluster.ErrRejected})
	job.Cancel()
	events := collect(t, job.Events())
	checkTerminated(t, events)
	want := map[string]string{
		"worker_joined":   `{"job":"job-1","worker":"w1","count":4}`,
		"worker_lost":     `{"job":"job-1","worker":"w1","count":3}`,
		"task_stolen":     `{"job":"job-1","worker":"w2","count":5}`,
		"speculation_won": `{"job":"job-1","worker":"w3","count":1}`,
	}
	for _, e := range events {
		if _, ok := e.(pdsat.WorkerEvent); !ok {
			continue
		}
		payload, ok := want[e.EventKind()]
		if !ok {
			t.Fatalf("%s twice, or a kind no job should see: %+v", e.EventKind(), e)
		}
		if got, err := json.Marshal(e); err != nil || string(got) != payload {
			t.Errorf("%s: payload %s (%v), want %s", e.EventKind(), got, err, payload)
		}
		delete(want, e.EventKind())
	}
	if len(want) != 0 {
		t.Fatalf("cluster events missing from the stream: %v", want)
	}
	// Events published after completion reach no stream.
	s.PublishClusterEvent(pdsat.ClusterEvent{Kind: cluster.WorkerJoined, Worker: "w2", Count: 1})
	if tail := collect(t, job.Events()); len(tail) != len(events) {
		t.Fatal("event published after Done leaked into the stream")
	}
}

// TestSampleProgressDecimation pins the memory bound of retained event
// histories: a batch larger than the per-batch event budget is reported as
// evenly spaced notifications whose counters stay strictly increasing and
// end exactly at Total.
func TestSampleProgressDecimation(t *testing.T) {
	defer pdsat.SetMaxSampleEventsForTest(16)()
	inst := testInstance(t, 53, 48, 7) // 11 unknowns: a family of 2048
	s := newTestSession(t, inst, 4)
	job, err := s.Submit(context.Background(), pdsat.SolveJob{})
	if err != nil {
		t.Fatal(err)
	}
	events := collect(t, job.Events())
	checkTerminated(t, events)
	var progress []pdsat.SampleProgress
	for _, e := range events {
		if sp, ok := e.(pdsat.SampleProgress); ok {
			progress = append(progress, sp)
		}
	}
	// 2048/16 = stride 128: 16 evenly spaced reports plus the
	// always-reported satisfiable results — far fewer than the family.
	if len(progress) == 0 || len(progress) > 64 {
		t.Fatalf("got %d SampleProgress events for a 2048 family, want a decimated stream", len(progress))
	}
	last, sats := 0, 0
	for _, sp := range progress {
		if sp.Done <= last || sp.Total != 2048 {
			t.Fatalf("counters not strictly increasing toward total: %+v after %d", sp, last)
		}
		last = sp.Done
		if sp.Satisfiable {
			sats++
		}
	}
	if last != 2048 {
		t.Fatalf("final progress event reports %d, want Total", last)
	}
	if sats == 0 {
		t.Fatal("the family's satisfiable subproblem must always be reported")
	}
}

func TestRemoveJob(t *testing.T) {
	inst := testInstance(t, 52, 30, 1)
	s := newTestSession(t, inst, 2000)
	job, err := s.Submit(context.Background(), pdsat.EstimateJob{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(job.ID()); err == nil {
		t.Fatal("removing a running job must fail")
	}
	job.Cancel()
	<-job.Done()
	if err := s.Remove(job.ID()); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Job(job.ID()); ok || len(s.Jobs()) != 0 {
		t.Fatal("job still registered after Remove")
	}
	if err := s.Remove(job.ID()); err == nil {
		t.Fatal("removing an unknown job must fail")
	}
}

func TestSubmitValidation(t *testing.T) {
	inst := testInstance(t, 52, 30, 1)
	s := newTestSession(t, inst, 4)
	if _, err := s.Submit(context.Background(), nil); err == nil {
		t.Fatal("expected error for nil spec")
	}
	if _, err := s.Submit(context.Background(), pdsat.EstimateJob{Vars: []pdsat.Var{99999}}); err == nil {
		t.Fatal("expected error for out-of-space vars")
	}
	if _, err := s.Submit(context.Background(), pdsat.SearchJob{Method: "genetic"}); err == nil {
		t.Fatal("expected error for unknown method")
	}
	if len(s.Jobs()) != 0 {
		t.Fatal("failed submissions must not register jobs")
	}
	job, err := s.Submit(context.Background(), pdsat.EstimateJob{})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Job(job.ID()); !ok || got != job {
		t.Fatal("job lookup")
	}
	if _, err := job.Result(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(context.Background(), pdsat.EstimateJob{}); err == nil {
		t.Fatal("expected error after Close")
	}
}
