package pdsat_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/paper-repro/pdsat-go/pdsat"
)

// policyConfig is testConfig with an evaluation policy on the session.
func policyConfig(sample int, pol pdsat.EvalPolicy) pdsat.Config {
	cfg := testConfig(sample)
	cfg.Runner.Policy = pol
	return cfg
}

// TestEstimateJobCacheAcrossJobs checks the tentpole's cross-search
// F-cache: two estimate jobs on the same decomposition set share one
// evaluation — the second is served from the session cache, emits a
// CacheHit event and reproduces the first job's estimate exactly.
func TestEstimateJobCacheAcrossJobs(t *testing.T) {
	inst := testInstance(t, 52, 30, 1)
	s, err := pdsat.NewSession(pdsat.FromInstance(inst),
		policyConfig(12, pdsat.EvalPolicy{Cache: true}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := t.Context()

	first := mustRun(t, s, pdsat.EstimateJob{}).Estimate
	if first.CacheHit {
		t.Fatal("first estimate cannot be a cache hit")
	}

	j, err := s.Submit(ctx, pdsat.EstimateJob{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Result(ctx)
	if err != nil {
		t.Fatal(err)
	}
	second := res.Estimate
	if !second.CacheHit {
		t.Fatalf("second estimate was not served from the cache: %+v", second)
	}
	if second.Estimate != first.Estimate {
		t.Fatalf("cached estimate differs: %+v vs %+v", second.Estimate, first.Estimate)
	}

	var hits int
	for e := range j.Events() {
		switch ev := e.(type) {
		case pdsat.CacheHit:
			hits++
			if ev.Job != j.ID() || ev.Value != first.Estimate.Value {
				t.Fatalf("bad CacheHit event: %+v", ev)
			}
		case pdsat.SampleProgress:
			t.Fatalf("cache-served job must not report sample progress: %+v", ev)
		}
	}
	if hits != 1 {
		t.Fatalf("got %d CacheHit events, want 1", hits)
	}

	stats := s.Stats()
	if stats.Cache.Hits != 1 || stats.Cache.Size == 0 {
		t.Fatalf("session cache stats: %+v", stats.Cache)
	}
	// One real evaluation total: the cache hit solved nothing.
	if stats.Evaluations != 1 {
		t.Fatalf("runner evaluations = %d, want 1", stats.Evaluations)
	}
}

// TestCacheDisabledIsIsolated checks that without the policy the session
// cache stays untouched and every job pays for its own evaluation.
func TestCacheDisabledIsIsolated(t *testing.T) {
	inst := testInstance(t, 52, 30, 1)
	s := newTestSession(t, inst, 12)
	mustRun(t, s, pdsat.EstimateJob{})
	mustRun(t, s, pdsat.EstimateJob{})
	stats := s.Stats()
	if stats.Cache.Hits != 0 || stats.Cache.Misses != 0 || stats.Cache.Size != 0 {
		t.Fatalf("disabled cache was used: %+v", stats.Cache)
	}
	if stats.Evaluations != 2 {
		t.Fatalf("evaluations = %d, want 2", stats.Evaluations)
	}
}

// TestSearchJobPolicyOverride checks the per-job policy override end to
// end: a search with the default policy solves far fewer subproblems than
// the session's (policy-off) default would, emits engine events, and the
// session counters record the savings.
func TestSearchJobPolicyOverride(t *testing.T) {
	inst := testInstance(t, 50, 36, 3)

	// Baseline: policy off.
	base := newTestSession(t, inst, 16)
	ctx := t.Context()
	baseOutcome := mustRun(t, base, pdsat.SearchJob{Method: pdsat.MethodTabu}).Search
	baseStats := base.Stats()

	// Same search, default policy via the job spec (session default off).
	s := newTestSession(t, inst, 16)
	pol := pdsat.DefaultEvalPolicy()
	j, err := s.Submit(ctx, pdsat.SearchJob{Policy: &pol})
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Result(ctx)
	if err != nil {
		t.Fatal(err)
	}
	stats := s.Stats()
	if stats.SubproblemsSolved >= baseStats.SubproblemsSolved {
		t.Fatalf("policy saved nothing: %d vs %d subproblems",
			stats.SubproblemsSolved, baseStats.SubproblemsSolved)
	}
	// Staged estimates may steer the search onto a different trajectory
	// (the bit-identity guarantee only covers the disabled policy), but the
	// cheap search must stay competitive: no worse than twice the
	// exhaustive baseline's best F on this fixed seed (here it actually
	// finds a better set).
	if res.Search.Result.BestValue <= 0 || res.Search.Result.Evaluations == 0 {
		t.Fatalf("degenerate search outcome under policy: %+v", res.Search.Result)
	}
	if res.Search.Result.BestValue > 2*baseOutcome.Result.BestValue {
		t.Fatalf("policy search best F %v much worse than baseline %v",
			res.Search.Result.BestValue, baseOutcome.Result.BestValue)
	}
	// The final best-point re-estimation runs through the same engine and
	// must be a free cache hit on the search's own evaluation.
	if res.Search.Best == nil || !res.Search.Best.CacheHit {
		t.Fatalf("best-point estimate was not served from the cache: %+v", res.Search.Best)
	}
}

// TestServerStatsAndPolicySubmission drives the evaluation policy through
// the HTTP layer: submit an estimate job with a policy override, then read
// the engine counters from GET /v1/stats.
func TestServerStatsAndPolicySubmission(t *testing.T) {
	inst := testInstance(t, 52, 30, 1)
	s, err := pdsat.NewSession(pdsat.FromInstance(inst), testConfig(12))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(pdsat.NewServer(s))
	defer ts.Close()

	submit := func(body string) map[string]any {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit status %d", resp.StatusCode)
		}
		var st map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	// Two estimations of the same set with the cache enabled per job: the
	// second must hit.
	for i := 0; i < 2; i++ {
		st := submit(`{"kind":"estimate","policy":{"cache":true,"stages":2,"epsilon":0.2}}`)
		id := st["id"].(string)
		j, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %q not found", id)
		}
		<-j.Done()
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Evaluations        int `json:"evaluations"`
		PrunedEvaluations  int `json:"pruned_evaluations"`
		SubproblemsSolved  int `json:"subproblems_solved"`
		SubproblemsAborted int `json:"subproblems_aborted"`
		Cache              struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
			Size   int    `json:"size"`
		} `json:"cache"`
		Solver struct {
			Conflicts    uint64 `json:"conflicts"`
			Propagations uint64 `json:"propagations"`
			Learned      uint64 `json:"learned"`
			ReduceDBs    uint64 `json:"reduce_dbs"`
			ArenaBytes   uint64 `json:"arena_bytes"`
		} `json:"solver"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Evaluations != 1 || stats.Cache.Hits != 1 || stats.Cache.Size != 1 {
		t.Fatalf("stats after cached re-estimation: %+v", stats)
	}
	if stats.SubproblemsSolved == 0 {
		t.Fatal("no subproblem accounted")
	}
	// The aggregated solver-core counters ride along: any real solving
	// propagates and keeps an arena.
	if stats.Solver.Propagations == 0 {
		t.Fatalf("no solver propagations surfaced in /v1/stats: %+v", stats.Solver)
	}
	if stats.Solver.ArenaBytes == 0 {
		t.Fatalf("arena gauge missing from /v1/stats: %+v", stats.Solver)
	}

	// An invalid policy must be rejected at submission.
	resp2, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"estimate","policy":{"stages":-2}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid policy accepted: status %d", resp2.StatusCode)
	}
}

// TestEvalPolicyValidateAtSubmit checks eager spec validation of policies.
func TestEvalPolicyValidateAtSubmit(t *testing.T) {
	inst := testInstance(t, 52, 30, 1)
	s := newTestSession(t, inst, 8)
	bad := pdsat.EvalPolicy{Gamma: 2}
	if _, err := s.Submit(t.Context(), pdsat.EstimateJob{Policy: &bad}); err == nil {
		t.Fatal("invalid estimate policy accepted")
	}
	if _, err := s.Submit(t.Context(), pdsat.SearchJob{Policy: &bad}); err == nil {
		t.Fatal("invalid search policy accepted")
	}
}

// TestEventsStreamEvalPruned streams a fixed-seed tabu search under
// DefaultEvalPolicy over GET /v1/jobs/{id}/events: its eval_pruned frames, the
// ones README shows, decode into EvalPruned with a bound above the incumbent
// it lost to and no more samples solved than planned.
func TestEventsStreamEvalPruned(t *testing.T) {
	s := newTestSession(t, testInstance(t, 50, 36, 3), 16)
	ts := httptest.NewServer(pdsat.NewServer(s))
	defer ts.Close()
	policy, err := json.Marshal(pdsat.DefaultEvalPolicy())
	if err != nil {
		t.Fatal(err)
	}
	id, _ := postJSON(t, ts.URL+"/v1/jobs", `{"kind":"search","method":"tabu","policy":`+string(policy)+`}`)["id"].(string)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	pruned := 0
	for dec := json.NewDecoder(resp.Body); ; {
		var frame struct {
			Event string          `json:"event"`
			Data  json.RawMessage `json:"data"`
		}
		if err := dec.Decode(&frame); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if frame.Event != "eval_pruned" {
			continue
		}
		var ev pdsat.EvalPruned
		if err := json.Unmarshal(frame.Data, &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Job != id || len(ev.Vars) == 0 || !(ev.LowerBound > ev.Incumbent) || ev.SamplesSolved > ev.SamplesPlanned {
			t.Fatalf("eval_pruned frame %s decodes to %+v", frame.Data, ev)
		}
		pruned++
	}
	if pruned == 0 {
		t.Fatal("the search streamed no eval_pruned frame")
	}
}
