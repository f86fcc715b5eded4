package pdsat

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Server exposes a Session's job-oriented API over HTTP/JSON (standard
// library only).  Endpoints:
//
//	POST /v1/jobs              submit a job: {"kind":"estimate"|"search"|
//	                           "solve"|"fleet"} beside the JSON members of
//	                           that kind's spec (EstimateJob, SearchJob,
//	                           SolveJob, FleetJob), decoded strictly — a
//	                           member the kind lacks or trailing bytes are
//	                           a 400; a body over 1 MiB is answered 413
//	GET  /v1/jobs              list all jobs
//	GET  /v1/jobs/{id}         one job's status and (when finished) result
//	GET  /v1/jobs/{id}/events  stream the job's events as NDJSON
//	                           (or SSE with Accept: text/event-stream);
//	                           ?member=N narrows a fleet job's stream to
//	                           member N's events, the worker events (which
//	                           concern every member) and the terminal "done"
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
// terminated by the single "done" event.  Replay means finished jobs are
// retained with their whole event histories: the newest 1024 of them, older
// ones evicted as jobs are submitted (see Session.Submit) and answered 404
// from then on, like a job a client DELETEd.
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

// DecodeJobSpec decodes the body of POST /v1/jobs, which is also what
// `pdsat -job` reads from its file: one JSON object whose "kind" names the
// job kind and whose other members are that kind's spec — EstimateJob,
// SearchJob, SolveJob or FleetJob, by their JSON tags — and nothing else.  A
// member the kind does not have (a solve job's "policy", a misspelt name) and
// anything after the object are errors: rejecting beats silently dropping a
// knob the client clearly meant to set.  It checks the spec's shape only;
// Validate checks it against a session.
func DecodeJobSpec(body []byte) (JobSpec, error) {
	var head struct {
		Kind JobKind `json:"kind"`
	}
	if err := json.Unmarshal(body, &head); err != nil {
		return nil, fmt.Errorf("bad job spec: %w", err)
	}
	strict := func(req any) error {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(req); err != nil {
			return fmt.Errorf("bad job spec: %w", err)
		}
		return nil
	}
	switch head.Kind {
	case JobEstimate:
		var req struct {
			Kind JobKind `json:"kind"`
			EstimateJob
		}
		err := strict(&req)
		return req.EstimateJob, err
	case JobSearch:
		var req struct {
			Kind JobKind `json:"kind"`
			SearchJob
		}
		err := strict(&req)
		return req.SearchJob, err
	case JobSolve:
		var req struct {
			Kind JobKind `json:"kind"`
			SolveJob
		}
		err := strict(&req)
		return req.SolveJob, err
	case JobFleet:
		var req struct {
			Kind JobKind `json:"kind"`
			FleetJob
		}
		err := strict(&req)
		return req.FleetJob, err
	default:
		return nil, fmt.Errorf("unknown job kind %q (want estimate, search, solve or fleet)", head.Kind)
	}
}

// maxSubmitBody bounds the body of a job submission.  A job spec is a few
// hundred bytes (a fleet with an explicit variable list, a few kilobytes);
// the bound only keeps a client from making the server buffer an arbitrary
// body.
const maxSubmitBody = 1 << 20

func (srv *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSubmitBody))
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		httpError(w, status, fmt.Errorf("bad request body: %w", err))
		return
	}
	spec, err := DecodeJobSpec(body)
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
	// events that carry no member — a WorkerEvent concerns every member, and
	// the terminal "done" — always pass the filter.
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
// clauses, database reductions, peak arena bytes).
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
	Result *JobResult `json:"result,omitempty"`
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
	st.Result = result
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
