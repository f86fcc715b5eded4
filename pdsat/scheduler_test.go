package pdsat_test

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/paper-repro/pdsat-go/pdsat"
)

// neighborhoodEvents filters a job's event stream down to its
// NeighborhoodDone events.
func neighborhoodEvents(events []pdsat.Event) []pdsat.NeighborhoodDone {
	var out []pdsat.NeighborhoodDone
	for _, e := range events {
		if nb, ok := e.(pdsat.NeighborhoodDone); ok {
			out = append(out, nb)
		}
	}
	return out
}

// TestSearchJobNeighborhoodEvents: a search job emits one NeighborhoodDone
// event per neighbourhood pass with internally consistent counters, and the
// passes account for the whole search trace — at width 4 and at the default
// width of 1 alike.
func TestSearchJobNeighborhoodEvents(t *testing.T) {
	inst := testInstance(t, 52, 30, 1)
	s := newTestSession(t, inst, 8)
	for _, tc := range []struct {
		policy *pdsat.EvalPolicy // nil: the session's zero policy
		width  int
	}{
		{&pdsat.EvalPolicy{MaxConcurrentEvals: 4}, 4},
		{nil, 1},
	} {
		job, err := s.Submit(context.Background(), pdsat.SearchJob{Method: "tabu", Policy: tc.policy})
		if err != nil {
			t.Fatal(err)
		}
		events := collect(t, job.Events())
		done := checkTerminated(t, events)
		if done.Err != "" || done.Cancelled {
			t.Fatalf("unexpected terminal event: %+v", done)
		}
		res, err := job.Result(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Search == nil || res.Search.Result == nil {
			t.Fatal("search job without search result")
		}

		passes := neighborhoodEvents(events)
		if len(passes) == 0 {
			t.Fatalf("width %d: search emitted no NeighborhoodDone events", tc.width)
		}
		evaluated := 0
		for i, nb := range passes {
			if nb.Job != job.ID() || nb.Member != 0 {
				t.Fatalf("pass %d tagged %q/%d, want job %q member 0", i, nb.Job, nb.Member, job.ID())
			}
			if nb.Width != tc.width {
				t.Fatalf("pass %d width %d, want %d", i, nb.Width, tc.width)
			}
			if nb.Candidates <= 0 || nb.Radius <= 0 || len(nb.Center) == 0 {
				t.Fatalf("pass %d degenerate: %+v", i, nb)
			}
			if nb.Evaluated < 0 || nb.Pruned < 0 || nb.Cancelled < 0 ||
				nb.Evaluated+nb.Cancelled > nb.Candidates {
				t.Fatalf("pass %d counters inconsistent: %+v", i, nb)
			}
			evaluated += nb.Evaluated
		}
		// Every trace entry after the start evaluation belongs to some pass.
		if want := len(res.Search.Result.Trace) - 1; evaluated != want {
			t.Fatalf("width %d: passes account for %d evaluations, trace has %d", tc.width, evaluated, want)
		}
		if last := passes[len(passes)-1]; last.BestValue != res.Search.Result.BestValue {
			t.Fatalf("final pass best %v, result best %v", last.BestValue, res.Search.Result.BestValue)
		}
	}
}

// TestSessionStatsSampleLedger: the session-level sample ledger balances
// exactly across estimate and concurrent search jobs — every planned Monte
// Carlo sample is accounted as solved, aborted, or skipped.
func TestSessionStatsSampleLedger(t *testing.T) {
	inst := testInstance(t, 52, 30, 1)
	pol := pdsat.DefaultEvalPolicy()
	pol.MaxConcurrentEvals = 4
	s, err := pdsat.NewSession(pdsat.FromInstance(inst), policyConfig(12, pol))
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, s, pdsat.EstimateJob{})
	mustRun(t, s, pdsat.SearchJob{Method: pdsat.MethodTabu})
	st := s.Stats()
	if st.SamplesPlanned <= 0 || st.Evaluations <= 0 {
		t.Fatalf("degenerate stats: %+v", st)
	}
	if st.SamplesPlanned != st.SubproblemsSolved+st.SubproblemsAborted+st.SamplesSkipped {
		t.Fatalf("sample ledger out of balance: planned %d != solved %d + aborted %d + skipped %d",
			st.SamplesPlanned, st.SubproblemsSolved, st.SubproblemsAborted, st.SamplesSkipped)
	}
	// The default policy saves work: not every planned sample is solved to
	// completion.
	if st.SubproblemsSolved >= st.SamplesPlanned {
		t.Fatalf("policy saved nothing: %d solved of %d planned", st.SubproblemsSolved, st.SamplesPlanned)
	}
}

// TestServerConcurrentSearchStream drives the scheduler through the HTTP
// layer: the policy's max_concurrent_evals knob passes through POST
// /v1/jobs, and neighborhood_done events appear on the NDJSON stream.
func TestServerConcurrentSearchStream(t *testing.T) {
	inst := testInstance(t, 52, 30, 1)
	s := newTestSession(t, inst, 8)
	ts := httptest.NewServer(pdsat.NewServer(s))
	defer ts.Close()

	created := postJSON(t, ts.URL+"/v1/jobs",
		`{"kind":"search","method":"tabu","policy":{"max_concurrent_evals":3}}`)
	id, _ := created["id"].(string)
	if id == "" {
		t.Fatalf("no job id in %v", created)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	type line struct {
		Event string `json:"event"`
		Data  struct {
			Job        string  `json:"job"`
			Width      int     `json:"width"`
			Candidates int     `json:"candidates"`
			BestValue  float64 `json:"best_value"`
		} `json:"data"`
	}
	var passes int
	var dones int
	var lastEvent string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lastEvent = l.Event
		switch l.Event {
		case "neighborhood_done":
			if l.Data.Job != id || l.Data.Width != 3 || l.Data.Candidates <= 0 {
				t.Fatalf("neighborhood_done payload: %+v", l.Data)
			}
			passes++
		case "done":
			dones++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if passes == 0 {
		t.Fatal("no neighborhood_done events on the stream")
	}
	if dones != 1 || lastEvent != "done" {
		t.Fatalf("stream must end with exactly one done event (got %d, last %q)", dones, lastEvent)
	}

	// The search result is reachable and the job finished cleanly.
	var status struct {
		State string `json:"state"`
	}
	getJSON(t, ts.URL+"/v1/jobs/"+id, &status)
	if status.State != "done" {
		t.Fatalf("job state %q", status.State)
	}

	// A negative width is rejected at submission, like any invalid policy.
	bad, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"search","policy":{"max_concurrent_evals":-2}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative concurrency accepted: status %d", bad.StatusCode)
	}
}

// TestConcurrentSearchJobCancel: cancelling a concurrent search
// mid-neighbourhood unwinds the frontier, terminates the stream with a
// single Done event, returns the partial result, and leaves the session's
// sample ledger balanced.
func TestConcurrentSearchJobCancel(t *testing.T) {
	inst := testInstance(t, 48, 40, 3)
	pol := pdsat.DefaultEvalPolicy()
	pol.MaxConcurrentEvals = 4
	s, err := pdsat.NewSession(pdsat.FromInstance(inst), policyConfig(24, pol))
	if err != nil {
		t.Fatal(err)
	}
	job, err := s.Submit(context.Background(), pdsat.SearchJob{Method: "tabu"})
	if err != nil {
		t.Fatal(err)
	}
	events := job.Events()
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
	res, _ := job.Result(context.Background())
	if res == nil || res.Search == nil || res.Search.Result == nil {
		t.Fatalf("cancelled search should return a partial result, got %+v", res)
	}
	if res.Search.Result.Stop != pdsat.StopContext {
		t.Fatalf("stop reason %q, want %q", res.Search.Result.Stop, pdsat.StopContext)
	}
	st := s.Stats()
	if st.SamplesPlanned != st.SubproblemsSolved+st.SubproblemsAborted+st.SamplesSkipped {
		t.Fatalf("ledger out of balance after cancel: %+v", st)
	}
}

// TestFleetNeighborhoodEventsTagged: in a fleet race every member's
// scheduler passes arrive member-tagged on the shared event stream.
func TestFleetNeighborhoodEventsTagged(t *testing.T) {
	inst := testInstance(t, 52, 30, 1)
	pol := pdsat.EvalPolicy{MaxConcurrentEvals: 2}
	s, err := pdsat.NewSession(pdsat.FromInstance(inst), fleetTestConfig(8, &pol))
	if err != nil {
		t.Fatal(err)
	}
	job, err := s.Submit(context.Background(), pdsat.FleetJob{
		Members: []pdsat.FleetMemberSpec{{Method: "tabu"}, {Method: "tabu"}},
		Seed:    5,
	})
	if err != nil {
		t.Fatal(err)
	}
	events := collect(t, job.Events())
	checkTerminated(t, events)
	seen := map[int]int{}
	for _, nb := range neighborhoodEvents(events) {
		if nb.Job != job.ID() || nb.Width != 2 {
			t.Fatalf("fleet pass mis-tagged: %+v", nb)
		}
		seen[nb.Member]++
	}
	if seen[0] == 0 || seen[1] == 0 {
		t.Fatalf("passes not reported for every member: %v", seen)
	}
}
