package pdsat_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/paper-repro/pdsat-go/pdsat"
)

// TestServerFleetJob is the HTTP acceptance test of the fleet surface:
// submit a mixed fleet over POST /v1/jobs, wait for it, check the per-member
// rows of the result, and filter the replayed event stream down to one
// member.
func TestServerFleetJob(t *testing.T) {
	inst := testInstance(t, 46, 40, 3)
	def := pdsat.DefaultEvalPolicy()
	s, err := pdsat.NewSession(pdsat.FromInstance(inst), fleetTestConfig(8, &def))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(pdsat.NewServer(s))
	defer ts.Close()

	created := postJSON(t, ts.URL+"/v1/jobs",
		`{"kind":"fleet","members":[{"method":"tabu"},{"method":"sa"}],"seed":5,"max_evaluations":12}`)
	id, _ := created["id"].(string)
	if id == "" || created["kind"] != "fleet" {
		t.Fatalf("fleet submit response: %v", created)
	}

	// Wait for completion via the job's handle (the HTTP status endpoint is
	// polled below for the wire shape).
	j, ok := s.Job(id)
	if !ok {
		t.Fatalf("submitted job %q not in session", id)
	}
	select {
	case <-j.Done():
	case <-time.After(120 * time.Second):
		t.Fatal("fleet job did not finish")
	}

	var status struct {
		State  string `json:"state"`
		Result struct {
			Fleet struct {
				Seed       int64 `json:"seed"`
				BestMember int   `json:"best_member"`
				Members    []struct {
					Member     int     `json:"member"`
					Method     string  `json:"method"`
					EvalSeed   int64   `json:"eval_seed"`
					SearchSeed int64   `json:"search_seed"`
					BestValue  float64 `json:"best_value"`
					Stop       string  `json:"stop"`
				} `json:"members"`
			} `json:"fleet"`
		} `json:"result"`
	}
	getJSON(t, ts.URL+"/v1/jobs/"+id, &status)
	if status.State != "done" {
		t.Fatalf("fleet job state %q", status.State)
	}
	f := status.Result.Fleet
	if f.Seed != 5 || len(f.Members) != 2 || f.BestMember < 0 {
		t.Fatalf("fleet wire result malformed: %+v", f)
	}
	for i, m := range f.Members {
		if m.Member != i || m.Stop == "" {
			t.Fatalf("member row %d malformed: %+v", i, m)
		}
		if m.EvalSeed != pdsat.SubSeed(5, 3*i) || m.SearchSeed != pdsat.SubSeed(5, 3*i+1) {
			t.Fatalf("member %d wire seeds do not follow the SubSeed rule: %+v", i, m)
		}
	}

	// Replay member 1's stream only: every member-tagged event must carry
	// member 1, and the terminal done still arrives.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events?member=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	type line struct {
		Event string `json:"event"`
		Data  struct {
			Member int `json:"member"`
		} `json:"data"`
	}
	var events []line
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, l)
	}
	if len(events) == 0 {
		t.Fatal("filtered stream is empty")
	}
	if events[len(events)-1].Event != "done" {
		t.Fatalf("filtered stream did not end with done but %q", events[len(events)-1].Event)
	}
	memberTagged := 0
	for _, l := range events {
		switch l.Event {
		case "done":
		default:
			if l.Data.Member != 1 {
				t.Fatalf("filtered stream leaked a member-%d %s event", l.Data.Member, l.Event)
			}
			memberTagged++
		}
	}
	if memberTagged == 0 {
		t.Fatal("filtered stream carried no member-1 events")
	}

	// A malformed member filter is a 400.
	bad, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events?member=-1")
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad member filter returned %d", bad.StatusCode)
	}
}

// TestStatusOfFleetCancelledBeforeFirstEvaluation is the fleet twin of
// TestStatusOfSearchCancelledBeforeFirstEvaluation: every member ends inside
// its start evaluation.  The status and the list used to come back empty, and
// so did the event stream — the first fleet_member_done failed to encode and
// the handler returned short of "done".
func TestStatusOfFleetCancelledBeforeFirstEvaluation(t *testing.T) {
	s := newTestSession(t, testInstance(t, 48, 40, 3), 24)
	defer s.Close()
	ts := httptest.NewServer(pdsat.NewServer(s))
	defer ts.Close()

	id := submitCancelled(t, s, pdsat.FleetJob{Members: []pdsat.FleetMemberSpec{{Method: "tabu"}, {Method: "sa"}}, Seed: 5})
	result := checkJobEncodes(t, ts.URL, id)
	fleet, _ := result["fleet"].(map[string]any)
	members, _ := fleet["members"].([]any)
	if len(members) != 2 || fleet["best_member"] != -1.0 {
		t.Fatalf("the cancelled fleet's result: %v", result)
	}
	for i, m := range members {
		row := m.(map[string]any)
		if row["best_value"] != nil || row["best_vars"] != nil {
			t.Errorf("member %d finished no evaluation and reports a best set: %v", i, row)
		}
	}
	// The members' terminal events are in the stream, without a best set.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	body, err := readAll(resp)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(body, []byte(`"event":"fleet_member_done"`)); n != 2 || bytes.Contains(body, []byte("best_v")) {
		t.Fatalf("%d fleet_member_done events, want 2 without best_vars or best_value:\n%s", n, body)
	}
}
