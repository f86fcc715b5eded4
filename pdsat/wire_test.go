package pdsat_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/paper-repro/pdsat-go/pdsat"
)

// wallTimes matches the one field of a job status that is not a function of
// the seed.
var wallTimes = regexp.MustCompile(`"wall_time_ns": \d+`)

// TestJobStatusWireFixtures holds GET /v1/jobs/{id} to the bodies recorded
// before the result types became their own wire form (PR 27), byte for byte
// with the wall times zeroed: one finished job of every kind, and a search and
// a fleet cancelled inside their start evaluation, whose best value is the
// +Inf encoding/json refuses.  json.Marshal of the JobResult must be the
// status's "result" member, and a fleet's fleet_member_done events — the
// same summary a third time — are recorded beside its status.
// PDSAT_UPDATE_GOLDENS=1 rewrites the fixtures.
func TestJobStatusWireFixtures(t *testing.T) {
	fleet := pdsat.FleetJob{
		Members:        []pdsat.FleetMemberSpec{{Method: "tabu"}, {Method: "sa"}},
		Seed:           5,
		MaxEvaluations: 12, // every member runs out its budget: no timing in the result
	}
	for _, c := range []struct {
		name      string
		spec      pdsat.JobSpec
		cancelled bool
	}{
		{"estimate", pdsat.EstimateJob{}, false},
		{"search", pdsat.SearchJob{Method: "tabu"}, false},
		{"solve", pdsat.SolveJob{}, false}, // over the first six start variables, below
		{"fleet", fleet, false},
		{"search_cancelled", pdsat.SearchJob{}, true},
		{"fleet_cancelled", fleet, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			// A session of its own: the job is job-1 and samples from slot 0.
			s := newTestSession(t, testInstance(t, 52, 30, 1), 12)
			defer s.Close()
			ts := httptest.NewServer(pdsat.NewServer(s))
			defer ts.Close()

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if c.cancelled {
				cancel()
			}
			spec := c.spec
			if c.name == "solve" {
				spec = pdsat.SolveJob{Vars: s.Problem().StartSet[:6]}
			}
			j, err := s.Submit(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			select {
			case <-j.Done():
			case <-time.After(120 * time.Second):
				t.Fatal("the job did not finish")
			}

			resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID())
			if err != nil {
				t.Fatal(err)
			}
			body, err := readAll(resp)
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d, error %v", resp.StatusCode, err)
			}

			// The status embeds what the JobResult marshals to.
			var status struct {
				Result json.RawMessage `json:"result"`
			}
			if err := json.Unmarshal(body, &status); err != nil {
				t.Fatal(err)
			}
			var onWire bytes.Buffer
			if err := json.Compact(&onWire, status.Result); err != nil {
				t.Fatal(err)
			}
			res, _ := j.Result(context.Background())
			direct, err := json.Marshal(res)
			if err != nil {
				t.Errorf("json.Marshal of the JobResult: %v", err)
			} else if !bytes.Equal(direct, onWire.Bytes()) {
				t.Errorf("json.Marshal of the JobResult differs from the status's result:\n%s\n%s", direct, onWire.Bytes())
			}

			checkFixture(t, "job_status_"+c.name+".json", wallTimes.ReplaceAll(body, []byte(`"wall_time_ns": 0`)))

			if c.spec.Kind() != pdsat.JobFleet {
				return
			}
			resp, err = http.Get(ts.URL + "/v1/jobs/" + j.ID() + "/events")
			if err != nil {
				t.Fatal(err)
			}
			stream, err := readAll(resp)
			if err != nil {
				t.Fatal(err)
			}
			var done []string
			for _, line := range bytes.Split(stream, []byte("\n")) {
				if bytes.HasPrefix(line, []byte(`{"event":"fleet_member_done"`)) {
					done = append(done, string(line)+"\n")
				}
			}
			sort.Strings(done) // the members finish in either order
			var lines bytes.Buffer
			for _, l := range done {
				lines.WriteString(l)
			}
			checkFixture(t, "job_events_"+c.name+"_member_done.ndjson", lines.Bytes())
		})
	}
}

// TestSubmitIsStrict: a submission is one object that says its kind and what
// that kind's spec has, and nothing else.  A member of another kind — a solve
// job's policy was the one case refused by hand, every other one was dropped
// in silence — a misspelt member and bytes after the object are each a 400
// that names what is wrong, and start no job.
func TestSubmitIsStrict(t *testing.T) {
	s := newTestSession(t, testInstance(t, 52, 30, 1), 12)
	defer s.Close()
	ts := httptest.NewServer(pdsat.NewServer(s))
	defer ts.Close()
	for _, c := range []struct{ body, names string }{
		{`{"kind":"solve","policy":{"stages":2}}`, `"policy"`},
		{`{"kind":"estimate","stop_on_sat":true}`, `"stop_on_sat"`},
		{`{"kind":"search","metod":"sa"}`, `"metod"`},
		{`{"kind":"estimate"} {"kind":"solve"}`, "after top-level value"},
		{`{"kind":"fleet","members":[{"method":"tabu","vars":[1]}]}`, `"vars"`},
		// A fleet has no jitter, target F, early end or per-group start.
		{`{"kind":"fleet","members":[{"method":"tabu"}],"jitter":2}`, `json: unknown field "jitter"`},
		{`{"kind":"fleet","members":[{"method":"tabu"}],"target_f":1e9}`, `json: unknown field "target_f"`},
		{`{"kind":"fleet","members":[{"method":"tabu"}],"keep_racing":true}`, `json: unknown field "keep_racing"`},
		{`{"kind":"fleet","members":[{"method":"tabu","start":[1]}]}`, `json: unknown field "start"`},
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		body, err := readAll(resp)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(body, []byte(strings.ReplaceAll(c.names, `"`, `\"`))) {
			t.Errorf("%s: status %d, body %s; want a 400 that names %s", c.body, resp.StatusCode, body, c.names)
		}
	}
	if n := len(s.Jobs()); n != 0 {
		t.Fatalf("%d jobs started by refused submissions", n)
	}
}

// TestFinishedJobsAreBounded floods a session with three times the bound of
// one-subproblem solve jobs while a long estimate runs: it never holds more
// than the bound's worth of finished jobs beside what runs, the newest is
// there to fetch, the oldest is gone like a deleted one, and the running job
// is not touched.
func TestFinishedJobsAreBounded(t *testing.T) {
	const bound = 8
	defer pdsat.SetMaxFinishedJobsForTest(bound)()
	s := newTestSession(t, testInstance(t, 52, 30, 1), 20000)
	defer s.Close()
	ts := httptest.NewServer(pdsat.NewServer(s))
	defer ts.Close()

	long, err := s.Submit(context.Background(), pdsat.EstimateJob{})
	if err != nil {
		t.Fatal(err)
	}
	var last *pdsat.Job
	for i := 0; i < 3*bound; i++ {
		last, err = s.Submit(context.Background(), pdsat.SolveJob{Vars: s.Problem().StartSet[:1], MaxSubproblems: 1})
		if err != nil {
			t.Fatal(err)
		}
		<-last.Done()
		// What Submit left — the bound's worth of finished jobs and the
		// estimate — and the job it started.
		if n := len(s.Jobs()); n > bound+2 {
			t.Fatalf("after %d submissions the session holds %d jobs; the bound is %d", i+1, n, bound)
		}
	}
	if _, ok := s.Job(long.ID()); !ok && !long.Finished() {
		t.Error("a running job was evicted")
	}
	status := func(id string) int {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status(last.ID()); got != http.StatusOK {
		t.Errorf("the newest job: status %d, want 200", got)
	}
	if got := status("job-2"); got != http.StatusNotFound {
		t.Errorf("the oldest solve job: status %d, want 404", got)
	}
}

// checkFixture compares got with testdata/name, or records it there.
func checkFixture(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("PDSAT_UPDATE_GOLDENS") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the recorded bytes:\n--- got\n%s\n--- want\n%s", name, got, want)
	}
}
