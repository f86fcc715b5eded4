package pdsat

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Server exposes a Session's job-oriented API over HTTP/JSON (standard
// library only).  Endpoints:
//
//	POST /v1/jobs              submit a job ({"kind":"estimate"|"search"|
//	                           "solve"|"fleet", ...}; fleet jobs carry
//	                           {"members":[{"method":"tabu","count":4},...]}
//	                           plus seed/jitter/target_f/max_evaluations);
//	                           a body over 1 MiB is answered 413
//	GET  /v1/jobs              list all jobs
//	GET  /v1/jobs/{id}         one job's status and (when finished) result
//	GET  /v1/jobs/{id}/events  stream the job's events as NDJSON
//	                           (or SSE with Accept: text/event-stream);
//	                           ?member=N narrows a fleet job's stream to
//	                           member N's events (plus the terminal "done")
//	POST /v1/jobs/{id}/cancel  cancel a job
//	DELETE /v1/jobs/{id}       evict a finished job (free its history)
//	GET  /v1/problem           the served problem's metadata
//	GET  /v1/stats             evaluation-engine counters (pruned
//	                           evaluations, aborted subproblems, F-cache
//	                           hits/misses)
//
// Jobs submitted over HTTP are bound to the session, not to the submitting
// request: they keep running after the request returns and are cancelled
// only via the cancel endpoint or Server/Session shutdown.  The event
// stream replays from the job's start, so clients may attach at any time —
// including after completion — and still observe the full ordered stream
// terminated by the single "done" event.  Replay means jobs and their event
// histories are retained until deleted: a long-lived server should DELETE
// finished jobs it no longer needs, or its memory grows with every job.
type Server struct {
	session *Session
	mux     *http.ServeMux
}

// NewServer creates an HTTP handler serving the session's job API.
func NewServer(s *Session) *Server {
	srv := &Server{session: s, mux: http.NewServeMux()}
	srv.mux.HandleFunc("POST /v1/jobs", srv.handleSubmit)
	srv.mux.HandleFunc("GET /v1/jobs", srv.handleList)
	srv.mux.HandleFunc("GET /v1/jobs/{id}", srv.handleStatus)
	srv.mux.HandleFunc("GET /v1/jobs/{id}/events", srv.handleEvents)
	srv.mux.HandleFunc("POST /v1/jobs/{id}/cancel", srv.handleCancel)
	srv.mux.HandleFunc("DELETE /v1/jobs/{id}", srv.handleDelete)
	srv.mux.HandleFunc("GET /v1/problem", srv.handleProblem)
	srv.mux.HandleFunc("GET /v1/stats", srv.handleStats)
	return srv
}

// ServeHTTP implements http.Handler.
func (srv *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { srv.mux.ServeHTTP(w, r) }

// submitRequest is the JSON body of POST /v1/jobs.
type submitRequest struct {
	Kind           JobKind `json:"kind"`
	Vars           []Var   `json:"vars"`
	Method         string  `json:"method"`
	Start          []Var   `json:"start"`
	StopOnSat      bool    `json:"stop_on_sat"`
	MaxSubproblems uint64  `json:"max_subproblems"`
	// Fleet-job fields (kind "fleet"): the member groups plus the root
	// seed, start-point jitter, target F, fleet-total evaluation budget and
	// the early-stop opt-out; see FleetJob.
	Members        []FleetMemberSpec `json:"members"`
	Seed           int64             `json:"seed"`
	Jitter         int               `json:"jitter"`
	TargetF        float64           `json:"target_f"`
	MaxEvaluations int               `json:"max_evaluations"`
	KeepRacing     bool              `json:"keep_racing"`
	// Policy optionally overrides the session's evaluation policy for
	// estimate, search and fleet jobs, e.g.
	// {"prune":true,"stages":3,"epsilon":0.1,"cache":true}.
	Policy *EvalPolicy `json:"policy"`
}

// spec converts the request into the matching JobSpec.
func (req submitRequest) spec() (JobSpec, error) {
	switch req.Kind {
	case JobEstimate:
		return EstimateJob{Vars: req.Vars, Policy: req.Policy}, nil
	case JobSearch:
		return SearchJob{Method: req.Method, Start: req.Start, Policy: req.Policy}, nil
	case JobFleet:
		return FleetJob{
			Members:        req.Members,
			Seed:           req.Seed,
			Start:          req.Start,
			Jitter:         req.Jitter,
			TargetF:        req.TargetF,
			MaxEvaluations: req.MaxEvaluations,
			KeepRacing:     req.KeepRacing,
			Policy:         req.Policy,
		}, nil
	case JobSolve:
		if req.Policy != nil {
			// Solving mode enumerates the whole family; the evaluation
			// policy has nothing to apply to it.  Rejecting beats silently
			// ignoring a knob the client clearly meant to set.
			return nil, fmt.Errorf("solve jobs accept no evaluation policy (it applies to estimate and search jobs)")
		}
		return SolveJob{Vars: req.Vars, StopOnSat: req.StopOnSat, MaxSubproblems: req.MaxSubproblems}, nil
	default:
		return nil, fmt.Errorf("unknown job kind %q (want estimate, search, solve or fleet)", req.Kind)
	}
}

// maxSubmitBody bounds the body of a job submission.  A job spec is a few
// hundred bytes (a fleet with an explicit variable list, a few kilobytes);
// the bound only keeps a client from making the server buffer an arbitrary
// body.
const maxSubmitBody = 1 << 20

func (srv *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBody)).Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		httpError(w, status, fmt.Errorf("bad request body: %w", err))
		return
	}
	spec, err := req.spec()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	// The job belongs to the session, not to this request: it must keep
	// running after the submitting connection closes.
	j, err := srv.session.Submit(context.WithoutCancel(r.Context()), spec)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, jobStatus(j))
}

func (srv *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := srv.session.Jobs()
	out := make([]jobStatusJSON, len(jobs))
	for i, j := range jobs {
		out[i] = jobStatus(j)
	}
	writeJSON(w, http.StatusOK, out)
}

func (srv *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := srv.session.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
	}
	return j, ok
}

func (srv *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := srv.job(w, r); ok {
		writeJSON(w, http.StatusOK, jobStatus(j))
	}
}

func (srv *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if j, ok := srv.job(w, r); ok {
		j.Cancel()
		writeJSON(w, http.StatusOK, jobStatus(j))
	}
}

// handleDelete evicts a finished job, releasing its retained event history
// and result; long-lived servers use it to bound memory.
func (srv *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	j, ok := srv.job(w, r)
	if !ok {
		return
	}
	if err := srv.session.Remove(j.ID()); err != nil {
		httpError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": j.ID()})
}

func (srv *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := srv.job(w, r)
	if !ok {
		return
	}
	// ?member=N narrows a fleet job's stream to one member's events; the
	// terminal "done" (which carries no member) always passes the filter.
	member := -1
	if q := r.URL.Query().Get("member"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad member filter %q", q))
			return
		}
		member = n
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	events := j.Subscribe(r.Context())
	// SSE streams emit a comment line whenever no event has been written
	// for a keep-alive interval, so intermediaries with idle timeouts do
	// not sever a subscriber waiting on a long solve.  NDJSON streams get
	// none (a bare comment is not a valid NDJSON record).
	var tick <-chan time.Time
	var keepAlive *time.Ticker
	if sse {
		keepAlive = time.NewTicker(sseKeepAliveInterval)
		defer keepAlive.Stop()
		tick = keepAlive.C
	}
	for {
		var werr error
		select {
		case e, ok := <-events:
			if !ok {
				return
			}
			if member >= 0 {
				if me, ok := e.(MemberEvent); ok && me.EventMember() != member {
					continue
				}
			}
			payload, err := json.Marshal(e)
			if err != nil {
				// The stream goes on to its "done": one event that does not
				// encode is reported in its place, not the end of the stream.
				payload, _ = json.Marshal(map[string]string{"error": "encoding the event: " + err.Error()})
			}
			if sse {
				_, werr = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", e.EventKind(), payload)
			} else {
				_, werr = fmt.Fprintf(w, "{\"event\":%q,\"data\":%s}\n", e.EventKind(), payload)
			}
			if keepAlive != nil {
				keepAlive.Reset(sseKeepAliveInterval)
			}
		case <-tick:
			_, werr = fmt.Fprint(w, ": keep-alive\n\n")
		}
		if werr != nil {
			// The client is gone (connection reset or closed); keep-alives
			// and further events would all fail the same way, so stop
			// streaming instead of spinning through the rest of the log.
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// sseKeepAliveInterval is the idle span after which an SSE event stream
// emits a `: keep-alive` comment.  A variable only so tests can shorten it.
var sseKeepAliveInterval = 30 * time.Second

// handleStats reports the session's evaluation-engine counters — total and
// pruned evaluations, solved and aborted subproblems, the F-cache's hit/miss
// statistics — and the aggregated solver-core counters (conflicts, learned
// clauses by LBD tier, database reductions, peak arena bytes).
func (srv *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, srv.session.Stats())
}

func (srv *Server) handleProblem(w http.ResponseWriter, r *http.Request) {
	p := srv.session.Problem()
	writeJSON(w, http.StatusOK, map[string]any{
		"name":       p.Name,
		"variables":  p.Formula.NumVars,
		"clauses":    p.Formula.NumClauses(),
		"start_set":  p.StartSet,
		"cores":      srv.session.Config().Cores,
		"generators": p.Instance != nil,
	})
}

// jobStatusJSON is the wire form of a job's status.
type jobStatusJSON struct {
	ID    string  `json:"id"`
	Kind  JobKind `json:"kind"`
	State string  `json:"state"`
	Error string  `json:"error,omitempty"`
	// Result is present once the job finished with a result (possibly a
	// partial one next to a non-empty Error, for cancelled estimations).
	Result *resultJSON `json:"result,omitempty"`
}

// resultJSON is the wire form of a JobResult.
type resultJSON struct {
	Estimate *SetEstimate `json:"estimate,omitempty"`
	Search   *searchJSON  `json:"search,omitempty"`
	Solve    *solveJSON   `json:"solve,omitempty"`
	Fleet    *fleetJSON   `json:"fleet,omitempty"`
}

// searchJSON flattens a SearchOutcome for the wire (the raw optimizer
// result holds unexported search-space state).  BestVars and BestValue are
// left out for a search that finished no evaluation (wireBest).
type searchJSON struct {
	Method      string        `json:"method"`
	BestVars    []Var         `json:"best_vars,omitempty"`
	BestValue   *float64      `json:"best_value,omitempty"`
	Evaluations int           `json:"evaluations"`
	Stop        string        `json:"stop"`
	WallTime    time.Duration `json:"wall_time_ns"`
	Best        *SetEstimate  `json:"best_estimate,omitempty"`
}

// fleetJSON flattens a FleetOutcome for the wire (the raw optimizer results
// hold unexported search-space state, so each member is rendered like a
// searchJSON row).
type fleetJSON struct {
	Seed       int64             `json:"seed"`
	Members    []fleetMemberJSON `json:"members"`
	BestMember int               `json:"best_member"`
	BestVars   []Var             `json:"best_vars,omitempty"`
	BestValue  float64           `json:"best_value,omitempty"`
	Best       *SetEstimate      `json:"best_estimate,omitempty"`
	WallTime   time.Duration     `json:"wall_time_ns"`
}

// fleetMemberJSON is one member's row of a fleet result.
type fleetMemberJSON struct {
	Member      int          `json:"member"`
	Method      string       `json:"method"`
	EvalSeed    int64        `json:"eval_seed"`
	SearchSeed  int64        `json:"search_seed"`
	StartVars   []Var        `json:"start_vars"`
	BestVars    []Var        `json:"best_vars,omitempty"`
	BestValue   *float64     `json:"best_value,omitempty"`
	Evaluations int          `json:"evaluations"`
	Stop        string       `json:"stop,omitempty"`
	Best        *SetEstimate `json:"best_estimate,omitempty"`
	Error       string       `json:"error,omitempty"`
}

// fleetStatus renders a fleet outcome for the wire.
func fleetStatus(f *FleetOutcome) *fleetJSON {
	out := &fleetJSON{
		Seed:       f.Seed,
		Members:    make([]fleetMemberJSON, len(f.Members)),
		BestMember: f.BestMember,
		BestVars:   f.BestVars,
		BestValue:  f.BestValue,
		Best:       f.Best,
		WallTime:   f.WallTime,
	}
	for i, m := range f.Members {
		row := fleetMemberJSON{
			Member:     m.Member,
			Method:     m.Method,
			EvalSeed:   m.EvalSeed,
			SearchSeed: m.SearchSeed,
			StartVars:  m.StartVars,
			Best:       m.Best,
			Error:      m.Err,
		}
		if m.Result != nil {
			row.BestVars, row.BestValue = wireBest(m.Result)
			row.Evaluations = m.Result.Evaluations
			row.Stop = string(m.Result.Stop)
		}
		out.Members[i] = row
	}
	return out
}

// solveJSON flattens a SolveReport for the wire.
type solveJSON struct {
	Vars               []Var         `json:"vars"`
	Processed          int           `json:"processed"`
	SubproblemsAborted int           `json:"subproblems_aborted"`
	TotalCost          float64       `json:"total_cost"`
	CostToFirstSat     float64       `json:"cost_to_first_sat"`
	FoundSat           bool          `json:"found_sat"`
	SatIndex           int64         `json:"sat_index"`
	WallTime           time.Duration `json:"wall_time_ns"`
	Interrupted        bool          `json:"interrupted"`
}

// jobStatus renders a job's current state.
func jobStatus(j *Job) jobStatusJSON {
	st := jobStatusJSON{ID: j.ID(), Kind: j.Kind(), State: "running"}
	if !j.Finished() {
		return st
	}
	result, err := j.finishedResult()
	switch {
	case err == nil:
		st.State = "done"
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		st.State = "cancelled"
		st.Error = err.Error()
	default:
		st.State = "failed"
		st.Error = err.Error()
	}
	if result != nil {
		st.Result = &resultJSON{Estimate: result.Estimate}
		if result.Search != nil {
			sj := &searchJSON{
				Method:      result.Search.Method,
				Evaluations: result.Search.Result.Evaluations,
				Stop:        string(result.Search.Result.Stop),
				WallTime:    result.Search.Result.WallTime,
				Best:        result.Search.Best,
			}
			sj.BestVars, sj.BestValue = wireBest(result.Search.Result)
			st.Result.Search = sj
		}
		if result.Fleet != nil {
			st.Result.Fleet = fleetStatus(result.Fleet)
		}
		if result.Solve != nil {
			st.Result.Solve = &solveJSON{
				Vars:               result.Solve.Point.SortedVars(),
				Processed:          result.Solve.Processed,
				SubproblemsAborted: result.Solve.SubproblemsAborted,
				TotalCost:          result.Solve.TotalCost,
				CostToFirstSat:     result.Solve.CostToFirstSat,
				FoundSat:           result.Solve.FoundSat,
				SatIndex:           result.Solve.SatIndex,
				WallTime:           result.Solve.WallTime,
				Interrupted:        result.Solve.Interrupted,
			}
		}
	}
	return st
}

// writeJSON encodes v before it sends the status line, so a value that does
// not encode is a 500 that says so and not a 200 with an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		status = http.StatusInternalServerError
		body.Reset()
		enc.Encode(map[string]string{"error": "encoding the response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body.Bytes()) // the client may be gone; nothing is left to do about it
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
