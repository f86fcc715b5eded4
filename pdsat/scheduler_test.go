package pdsat_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
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
// passes account for the whole search trace — under the session's zero
// policy and under a pruning one that names the width of 1.
func TestSearchJobNeighborhoodEvents(t *testing.T) {
	inst := testInstance(t, 52, 30, 1)
	s := newTestSession(t, inst, 8)
	for _, policy := range []*pdsat.EvalPolicy{
		nil, // the session's zero policy
		{Prune: true, MaxConcurrentEvals: 1},
	} {
		job, err := s.Submit(context.Background(), pdsat.SearchJob{Method: "tabu", Policy: policy})
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
			t.Fatalf("policy %+v: search emitted no NeighborhoodDone events", policy)
		}
		evaluated := 0
		for i, nb := range passes {
			if nb.Job != job.ID() || nb.Member != 0 {
				t.Fatalf("pass %d tagged %q/%d, want job %q member 0", i, nb.Job, nb.Member, job.ID())
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
			t.Fatalf("policy %+v: passes account for %d evaluations, trace has %d", policy, evaluated, want)
		}
		if last := passes[len(passes)-1]; last.BestValue != res.Search.Result.BestValue {
			t.Fatalf("final pass best %v, result best %v", last.BestValue, res.Search.Result.BestValue)
		}
	}
}

// TestSessionStatsSampleLedger: the session-level sample ledger balances
// exactly across estimate and search jobs — every planned Monte Carlo sample
// is accounted as solved, aborted, or skipped.
func TestSessionStatsSampleLedger(t *testing.T) {
	inst := testInstance(t, 52, 30, 1)
	s, err := pdsat.NewSession(pdsat.FromInstance(inst), policyConfig(12, pdsat.DefaultEvalPolicy()))
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

// TestServerConcurrentSearchStream: two search jobs submitted at once
// through POST /v1/jobs run side by side on the session, and each NDJSON
// stream carries its own job's neighborhood_done events (with no "width"
// member) and ends with exactly one done event.
func TestServerConcurrentSearchStream(t *testing.T) {
	inst := testInstance(t, 52, 30, 1)
	s := newTestSession(t, inst, 8)
	ts := httptest.NewServer(pdsat.NewServer(s))
	defer ts.Close()

	ids := make([]string, 2)
	for i, method := range []string{"tabu", "sa"} {
		created := postJSON(t, ts.URL+"/v1/jobs", `{"kind":"search","method":"`+method+`"}`)
		if ids[i], _ = created["id"].(string); ids[i] == "" {
			t.Fatalf("no job id in %v", created)
		}
	}
	type line struct {
		Event string                     `json:"event"`
		Data  map[string]json.RawMessage `json:"data"`
	}
	errs := make(chan error, len(ids))
	for _, id := range ids {
		go func() {
			resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var passes, dones int
			var lastEvent string
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 1<<20), 1<<20)
			for sc.Scan() {
				var l line
				if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
					errs <- fmt.Errorf("bad NDJSON line %q: %v", sc.Text(), err)
					return
				}
				lastEvent = l.Event
				switch l.Event {
				case "neighborhood_done":
					if string(l.Data["job"]) != `"`+id+`"` || l.Data["width"] != nil || l.Data["candidates"] == nil {
						errs <- fmt.Errorf("%s: neighborhood_done payload %s", id, sc.Text())
						return
					}
					passes++
				case "done":
					dones++
				}
			}
			switch {
			case sc.Err() != nil:
				errs <- sc.Err()
			case passes == 0:
				errs <- fmt.Errorf("%s: no neighborhood_done events on the stream", id)
			case dones != 1 || lastEvent != "done":
				errs <- fmt.Errorf("%s: stream must end with exactly one done event (got %d, last %q)", id, dones, lastEvent)
			default:
				errs <- nil
			}
		}()
	}
	for range ids {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids {
		var status struct {
			State string `json:"state"`
		}
		getJSON(t, ts.URL+"/v1/jobs/"+id, &status)
		if status.State != "done" {
			t.Fatalf("job %s state %q", id, status.State)
		}
	}
}

// TestWideSearchRefused: a width above 1 — or below 0 — is refused before
// anything runs, with eval's one message, by EvalPolicy.Validate, by
// DecodeJobSpec + JobSpec.Validate for a search and a fleet, and by POST
// /v1/jobs as a 400.
func TestWideSearchRefused(t *testing.T) {
	inst := testInstance(t, 52, 30, 1)
	s := newTestSession(t, inst, 8)
	ts := httptest.NewServer(pdsat.NewServer(s))
	defer ts.Close()
	for _, width := range []int{4, -2} {
		want := pdsat.EvalPolicy{MaxConcurrentEvals: width}.Validate()
		if want == nil {
			t.Fatalf("EvalPolicy.Validate accepts width %d", width)
		}
		for _, body := range []string{
			fmt.Sprintf(`{"kind":"search","method":"tabu","policy":{"max_concurrent_evals":%d}}`, width),
			fmt.Sprintf(`{"kind":"fleet","members":[{"method":"tabu"}],"policy":{"max_concurrent_evals":%d}}`, width),
		} {
			spec, err := pdsat.DecodeJobSpec([]byte(body))
			if err != nil {
				t.Fatalf("%s: %v", body, err)
			}
			if err := spec.Validate(s); err == nil || !strings.Contains(err.Error(), want.Error()) {
				t.Fatalf("%s: Validate = %v, want %q", body, err, want)
			}
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var out struct {
				Error string `json:"error"`
			}
			err = json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusBadRequest || !strings.Contains(out.Error, want.Error()) {
				t.Fatalf("POST %s: status %d, error %q (%v), want 400 with %q", body, resp.StatusCode, out.Error, err, want)
			}
		}
	}
	if len(s.Jobs()) != 0 {
		t.Fatalf("refused specs left %d jobs", len(s.Jobs()))
	}
}

// TestConcurrentSearchJobCancel: cancelling one of two concurrent search
// jobs mid-neighbourhood terminates its stream with a single cancelled Done
// event and returns its partial result, while the other job runs to its
// normal end, and the session's sample ledger stays balanced.
func TestConcurrentSearchJobCancel(t *testing.T) {
	inst := testInstance(t, 48, 40, 3)
	s, err := pdsat.NewSession(pdsat.FromInstance(inst), policyConfig(24, pdsat.DefaultEvalPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	cancelled, err := s.Submit(context.Background(), pdsat.SearchJob{Method: "tabu"})
	if err != nil {
		t.Fatal(err)
	}
	other, err := s.Submit(context.Background(), pdsat.SearchJob{Method: "sa", Policy: &pdsat.EvalPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	events := cancelled.Events()
	select {
	case <-events:
	case <-time.After(60 * time.Second):
		t.Fatal("no progress before cancel")
	}
	cancelled.Cancel()
	done := checkTerminated(t, collect(t, events))
	if !done.Cancelled {
		t.Fatalf("terminal event not marked cancelled: %+v", done)
	}
	res, _ := cancelled.Result(context.Background())
	if res == nil || res.Search == nil || res.Search.Result == nil {
		t.Fatalf("cancelled search should return a partial result, got %+v", res)
	}
	if res.Search.Result.Stop != pdsat.StopContext {
		t.Fatalf("stop reason %q, want %q", res.Search.Result.Stop, pdsat.StopContext)
	}
	if done := checkTerminated(t, collect(t, other.Events())); done.Cancelled || done.Err != "" {
		t.Fatalf("the other search ended with %+v", done)
	}
	if res, err := other.Result(context.Background()); err != nil || res.Search.Result.Stop == pdsat.StopContext {
		t.Fatalf("the other search: %v, %+v", err, res)
	}
	st := s.Stats()
	if st.SamplesPlanned != st.SubproblemsSolved+st.SubproblemsAborted+st.SamplesSkipped {
		t.Fatalf("ledger out of balance after cancel: %+v", st)
	}
}

// TestFleetNeighborhoodEventsTagged: in a fleet race every member's
// neighbourhood passes arrive member-tagged on the shared event stream.
func TestFleetNeighborhoodEventsTagged(t *testing.T) {
	inst := testInstance(t, 52, 30, 1)
	s, err := pdsat.NewSession(pdsat.FromInstance(inst), fleetTestConfig(8, nil))
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
		if nb.Job != job.ID() {
			t.Fatalf("fleet pass mis-tagged: %+v", nb)
		}
		seen[nb.Member]++
	}
	if seen[0] == 0 || seen[1] == 0 {
		t.Fatalf("passes not reported for every member: %v", seen)
	}
}
