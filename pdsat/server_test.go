package pdsat_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/paper-repro/pdsat-go/internal/decomp"
	runner "github.com/paper-repro/pdsat-go/internal/pdsat"
	"github.com/paper-repro/pdsat-go/internal/solver"
	"github.com/paper-repro/pdsat-go/pdsat"
)

func postJSON(t *testing.T, url string, body string) map[string]any {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode >= 400 {
		t.Fatalf("POST %s: status %d, body %v", url, resp.StatusCode, out)
	}
	return out
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatal(err)
	}
}

// TestServerEstimateRoundTrip is the acceptance test of the HTTP surface:
// submit an estimate job over -serve's API, stream its events as NDJSON,
// fetch the result, and check it is bit-identical to the bare runner path.
func TestServerEstimateRoundTrip(t *testing.T) {
	inst := testInstance(t, 48, 40, 3)

	// Reference: the bare runner path with the same fixed seed.
	r := runner.NewRunner(inst.CNF, runner.Config{
		SampleSize: 24, Workers: 2, Seed: 1, CostMetric: solver.CostPropagations,
	})
	want, err := r.EvaluatePoint(context.Background(), decomp.NewSpace(inst.UnknownStartVars()).FullPoint())
	if err != nil {
		t.Fatal(err)
	}

	s := newTestSession(t, inst, 24)
	ts := httptest.NewServer(pdsat.NewServer(s))
	defer ts.Close()

	// Problem metadata.
	var problem map[string]any
	getJSON(t, ts.URL+"/v1/problem", &problem)
	if int(problem["variables"].(float64)) != inst.CNF.NumVars {
		t.Fatalf("problem metadata: %v", problem)
	}

	// Submit.
	created := postJSON(t, ts.URL+"/v1/jobs", `{"kind":"estimate"}`)
	id, _ := created["id"].(string)
	if id == "" {
		t.Fatalf("no job id in %v", created)
	}

	// Stream events (NDJSON): ordered sample progress, one terminal done.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content type %q", ct)
	}
	type line struct {
		Event string `json:"event"`
		Data  struct {
			Job   string `json:"job"`
			Done  int    `json:"done"`
			Total int    `json:"total"`
		} `json:"data"`
	}
	var lines []line
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 25 {
		t.Fatalf("got %d event lines, want 24 sample_progress + 1 done", len(lines))
	}
	dones := 0
	for i, l := range lines {
		if l.Data.Job != id {
			t.Fatalf("line %d for job %q, want %q", i, l.Data.Job, id)
		}
		switch l.Event {
		case "sample_progress":
			if l.Data.Done != i+1 || l.Data.Total != 24 {
				t.Fatalf("line %d out of order: %+v", i, l)
			}
		case "done":
			dones++
		default:
			t.Fatalf("unexpected event %q", l.Event)
		}
	}
	if dones != 1 || lines[len(lines)-1].Event != "done" {
		t.Fatalf("stream must end with exactly one done event (got %d)", dones)
	}

	// Fetch the result and compare against the reference, bit for bit.
	var status struct {
		State  string `json:"state"`
		Result *struct {
			Estimate *pdsat.SetEstimate `json:"estimate"`
		} `json:"result"`
	}
	getJSON(t, ts.URL+"/v1/jobs/"+id, &status)
	if status.State != "done" || status.Result == nil || status.Result.Estimate == nil {
		t.Fatalf("status: %+v", status)
	}
	if status.Result.Estimate.Estimate != want.Estimate {
		t.Fatalf("HTTP estimate diverges:\n got  %+v\n want %+v",
			status.Result.Estimate.Estimate, want.Estimate)
	}

	// The job list shows the finished job.
	var list []map[string]any
	getJSON(t, ts.URL+"/v1/jobs", &list)
	if len(list) != 1 || list[0]["id"] != id {
		t.Fatalf("job list: %v", list)
	}
}

func TestServerCancelAndErrors(t *testing.T) {
	inst := testInstance(t, 48, 40, 3)
	s := newTestSession(t, inst, 5000)
	ts := httptest.NewServer(pdsat.NewServer(s))
	defer ts.Close()

	created := postJSON(t, ts.URL+"/v1/jobs", `{"kind":"estimate"}`)
	id := created["id"].(string)

	// Cancel it mid-flight; the event stream still terminates with one done.
	postJSON(t, ts.URL+"/v1/jobs/"+id+"/cancel", "")
	deadline := time.Now().Add(60 * time.Second)
	var status struct {
		State string `json:"state"`
	}
	for {
		getJSON(t, ts.URL+"/v1/jobs/"+id, &status)
		if status.State != "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not stop after cancel")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if status.State != "cancelled" {
		t.Fatalf("state after cancel: %q", status.State)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	body, err := readAll(resp)
	if err != nil {
		t.Fatal(err)
	}
	if got := bytes.Count(body, []byte(`"event":"done"`)); got != 1 {
		t.Fatalf("cancelled job stream has %d done events, want 1:\n%s", got, body)
	}

	// SSE framing.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+id+"/events", nil)
	req.Header.Set("Accept", "text/event-stream")
	sseResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sseBody, err := readAll(sseResp)
	if err != nil {
		t.Fatal(err)
	}
	if sseResp.Header.Get("Content-Type") != "text/event-stream" ||
		!bytes.Contains(sseBody, []byte("event: done\ndata: ")) {
		t.Fatalf("bad SSE stream:\n%s", sseBody)
	}

	// Error paths.
	for _, tc := range []struct {
		method, path, body string
		wantStatus         int
	}{
		{"POST", "/v1/jobs", `{"kind":"alchemy"}`, http.StatusBadRequest},
		{"POST", "/v1/jobs", `not json`, http.StatusBadRequest},
		{"POST", "/v1/jobs", `{"kind":"estimate","vars":[99999]}`, http.StatusBadRequest},
		{"GET", "/v1/jobs/job-77", "", http.StatusNotFound},
		{"POST", "/v1/jobs/job-77/cancel", "", http.StatusNotFound},
		{"DELETE", "/v1/jobs", "", http.StatusMethodNotAllowed},
	} {
		req, _ := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.wantStatus {
			t.Fatalf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.wantStatus)
		}
	}
}

func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}

// TestServerSolveJob drives a solve job over HTTP end to end.
func TestServerSolveJob(t *testing.T) {
	inst := testInstance(t, 54, 40, 9)
	s := newTestSession(t, inst, 8)
	ts := httptest.NewServer(pdsat.NewServer(s))
	defer ts.Close()

	created := postJSON(t, ts.URL+"/v1/jobs", `{"kind":"solve","stop_on_sat":true}`)
	id := created["id"].(string)
	// Draining the event stream waits for completion.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := readAll(resp); err != nil {
		t.Fatal(err)
	}
	var status struct {
		State  string `json:"state"`
		Result *struct {
			Solve *struct {
				FoundSat  bool    `json:"found_sat"`
				SatIndex  int64   `json:"sat_index"`
				TotalCost float64 `json:"total_cost"`
			} `json:"solve"`
		} `json:"result"`
	}
	getJSON(t, ts.URL+"/v1/jobs/"+id, &status)
	if status.State != "done" || status.Result == nil || status.Result.Solve == nil {
		t.Fatalf("status: %+v", status)
	}
	if !status.Result.Solve.FoundSat || status.Result.Solve.SatIndex < 0 {
		t.Fatalf("solve result: %+v", status.Result.Solve)
	}

	// Evict the finished job: it disappears from the API.
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+id, nil)
	delResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status %d", delResp.StatusCode)
	}
	gone, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	gone.Body.Close()
	if gone.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted job still served: status %d", gone.StatusCode)
	}
}

// TestServerRefusesFamiliesTooLargeToEnumerate: a solve job over 40 A5/1
// start variables is a family of 2^40.  It used to be accepted and to kill
// the server allocating its batch; now it is answered 400, naming
// max_subproblems, with no job created, and the same job bounded by
// max_subproblems runs on the same server.
func TestServerRefusesFamiliesTooLargeToEnumerate(t *testing.T) {
	inst := testInstance(t, 24, 40, 9)
	s := newTestSession(t, inst, 8)
	ts := httptest.NewServer(pdsat.NewServer(s))
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"kind":"solve"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, err := readAll(resp)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(body, []byte("max_subproblems")) || len(s.Jobs()) != 0 {
		t.Fatalf("a solve of 2^%d subproblems: status %d, %s, %d jobs", len(inst.UnknownStartVars()), resp.StatusCode, body, len(s.Jobs()))
	}

	created := postJSON(t, ts.URL+"/v1/jobs", `{"kind":"solve","max_subproblems":3}`)
	id := created["id"].(string)
	events, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := readAll(events); err != nil {
		t.Fatal(err)
	}
	var status struct {
		State  string `json:"state"`
		Result struct {
			Solve struct {
				Processed int `json:"processed"`
			} `json:"solve"`
		} `json:"result"`
	}
	getJSON(t, ts.URL+"/v1/jobs/"+id, &status)
	if status.State != "done" || status.Result.Solve.Processed != 3 {
		t.Fatalf("the bounded solve: %+v", status)
	}
}

// TestServerSubmitBodyLimit checks the bound on a job submission's body: a
// spec that fills the 1 MiB limit to the last byte is accepted, one byte
// more is answered 413 and creates no job.
func TestServerSubmitBodyLimit(t *testing.T) {
	inst := testInstance(t, 54, 40, 9)
	s := newTestSession(t, inst, 8)
	ts := httptest.NewServer(pdsat.NewServer(s))
	defer ts.Close()

	const limit = 1 << 20
	spec := `{"kind":"estimate"}`
	// Leading whitespace is part of the JSON value's encoding, so the
	// decoder reads all of it before it can return.
	padded := func(n int) string { return strings.Repeat(" ", n-len(spec)) + spec }

	created := postJSON(t, ts.URL+"/v1/jobs", padded(limit))
	if id, _ := created["id"].(string); id == "" {
		t.Fatalf("a %d-byte submission created no job: %v", limit, created)
	}

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(padded(limit+1)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("a %d-byte submission: status %d, want %d", limit+1, resp.StatusCode, http.StatusRequestEntityTooLarge)
	}
	var list []map[string]any
	getJSON(t, ts.URL+"/v1/jobs", &list)
	if len(list) != 1 {
		t.Fatalf("%d jobs after one accepted and one oversized submission, want 1", len(list))
	}
}

// submitCancelled submits a job that is cancelled before it starts: a search
// or a fleet then ends inside its start evaluation, with no evaluation
// finished and a best value of +Inf, which encoding/json refuses.
func submitCancelled(t *testing.T, s *pdsat.Session, spec pdsat.JobSpec) string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	j, err := s.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("the cancelled job did not finish")
	}
	return j.ID()
}

// checkJobEncodes fetches a finished job every way the server offers — its
// status, the job list, its event stream as NDJSON and as SSE — and fails the
// test unless each is well-formed JSON and both streams end with "done".  It
// returns the job's result as the status endpoint renders it.
func checkJobEncodes(t *testing.T, base, id string) map[string]any {
	t.Helper()
	var status struct {
		Result map[string]any `json:"result"`
	}
	getJSON(t, base+"/v1/jobs/"+id, &status)
	var list []map[string]any
	getJSON(t, base+"/v1/jobs", &list)
	if len(list) == 0 {
		t.Fatal("the job list is empty")
	}

	resp, err := http.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	ndjson, err := readAll(resp)
	if err != nil {
		t.Fatal(err)
	}
	last := ""
	for _, raw := range bytes.Split(bytes.TrimSpace(ndjson), []byte("\n")) {
		var l struct {
			Event string         `json:"event"`
			Data  map[string]any `json:"data"`
		}
		if err := json.Unmarshal(raw, &l); err != nil || l.Data == nil {
			t.Fatalf("bad NDJSON line %q: %v", raw, err)
		}
		if _, failed := l.Data["error"]; failed && l.Event != "done" {
			t.Fatalf("a %s event did not encode: %s", l.Event, raw)
		}
		last = l.Event
	}
	if last != "done" {
		t.Fatalf("the NDJSON stream ends with %q, want done:\n%s", last, ndjson)
	}

	req, _ := http.NewRequest("GET", base+"/v1/jobs/"+id+"/events", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sse, err := readAll(resp)
	if err != nil {
		t.Fatal(err)
	}
	blocks := bytes.Split(bytes.TrimSpace(sse), []byte("\n\n"))
	for _, block := range blocks {
		_, data, ok := bytes.Cut(block, []byte("\ndata: "))
		if !ok || !json.Valid(data) {
			t.Fatalf("bad SSE block %q", block)
		}
	}
	if !bytes.HasPrefix(blocks[len(blocks)-1], []byte("event: done\n")) {
		t.Fatalf("the SSE stream does not end with done:\n%s", sse)
	}
	return status.Result
}

// TestStatusOfSearchCancelledBeforeFirstEvaluation: a search cancelled during
// its start evaluation has the best value it began with, +Inf.  Its status used
// to be a 200 with an empty body — the header was out before encoding/json
// refused the value — and so was the list of every job of the session; now the
// result simply has no best set, and everything decodes.
func TestStatusOfSearchCancelledBeforeFirstEvaluation(t *testing.T) {
	s := newTestSession(t, testInstance(t, 48, 40, 3), 24)
	defer s.Close()
	ts := httptest.NewServer(pdsat.NewServer(s))
	defer ts.Close()

	result := checkJobEncodes(t, ts.URL, submitCancelled(t, s, pdsat.SearchJob{}))
	search, _ := result["search"].(map[string]any)
	if search == nil || search["stop"] != string(pdsat.StopContext) {
		t.Fatalf("the cancelled search's result: %v", result)
	}
	for _, field := range []string{"best_vars", "best_value", "best_estimate"} {
		if v, ok := search[field]; ok {
			t.Errorf("a search that finished no evaluation reports %s %v", field, v)
		}
	}
}

// TestWriteJSONReportsWhatDoesNotEncode: a response is encoded before its
// status line is sent, so a value encoding/json refuses is a 500 with the
// reason in its body, not a 200 without one.
func TestWriteJSONReportsWhatDoesNotEncode(t *testing.T) {
	rec := httptest.NewRecorder()
	pdsat.WriteJSONForTest(rec, http.StatusOK, map[string]float64{"f": math.Inf(1)})
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || rec.Code != http.StatusInternalServerError ||
		!strings.Contains(body["error"], "encoding the response") {
		t.Fatalf("status %d, body %q (%v); want a 500 that says the response did not encode", rec.Code, rec.Body, err)
	}
}
