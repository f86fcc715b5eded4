package pdsat_test

import (
	"bufio"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/paper-repro/pdsat-go/internal/cluster"
	"github.com/paper-repro/pdsat-go/pdsat"
)

// TestEventsSSEKeepAlive subscribes to a long-running job's event stream as
// SSE with a member filter that matches nothing, so the stream sits idle
// while the job works — and must carry `: keep-alive` comments at the
// (shortened) idle interval so intermediaries with idle timeouts do not
// sever it.  Once the first keep-alive arrives the job is cancelled; the
// terminal done event still passes the filter and ends the stream.  A worker
// event, which concerns every member, passes the filter too.
func TestEventsSSEKeepAlive(t *testing.T) {
	restore := pdsat.SetSSEKeepAliveIntervalForTest(5 * time.Millisecond)
	defer restore()

	inst := testInstance(t, 48, 40, 3)
	// A 5000-sample estimate runs for seconds — far longer than the
	// shortened keep-alive interval — so the idle tick always fires first.
	s := newTestSession(t, inst, 5000)
	ts := httptest.NewServer(pdsat.NewServer(s))
	defer ts.Close()

	created := postJSON(t, ts.URL+"/v1/jobs", `{"kind":"estimate"}`)
	id, _ := created["id"].(string)
	if id == "" {
		t.Fatalf("no job id in %v", created)
	}

	s.PublishClusterEvent(pdsat.ClusterEvent{Kind: cluster.WorkerJoined, Worker: "w1", Count: 2})

	// Member 99 exists in no estimate job: every SampleProgress is filtered
	// out and only the worker event and the terminal done pass, so the
	// stream is idle while the job works.
	req, err := http.NewRequest("GET", ts.URL+"/v1/jobs/"+id+"/events?member=99", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}

	keepAlives, doneEvents := 0, 0
	var passed []string // the event and data lines
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") || strings.HasPrefix(line, "data: ") {
			passed = append(passed, line)
		}
		if strings.HasPrefix(line, ": keep-alive") {
			keepAlives++
			if keepAlives == 1 {
				// The stream proved it stays alive while idle; stop the
				// job so the test does not wait out all 5000 samples.
				postJSON(t, ts.URL+"/v1/jobs/"+id+"/cancel", "")
			}
		}
		if line == "event: done" {
			doneEvents++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if keepAlives == 0 {
		t.Fatal("idle SSE stream carried no keep-alive comment")
	}
	if doneEvents != 1 {
		t.Fatalf("got %d done events, want exactly 1", doneEvents)
	}
	want := []string{"event: worker_joined", `data: {"job":"` + id + `","worker":"w1","count":2}`, "event: done"}
	if len(passed) != 4 || !slices.Equal(passed[:3], want) {
		t.Fatalf("the filtered stream passed %q, want %q and the done's data", passed, want)
	}
}

// failAfterWriter is a ResponseWriter whose body writes start failing after
// the first one, emulating a client that disconnected mid-stream behind a
// buffering proxy (the write error is the only signal the handler gets).
type failAfterWriter struct {
	header http.Header
	writes int
}

func (w *failAfterWriter) Header() http.Header { return w.header }
func (w *failAfterWriter) WriteHeader(int)     {}
func (w *failAfterWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > 1 {
		return 0, errors.New("client went away")
	}
	return len(p), nil
}

// TestEventsStopStreamingOnWriteError replays a finished job's event log —
// dozens of records — into a writer that fails after the first record.  The
// handler must stop on the first failed write instead of spinning through
// the remaining history against a dead connection (the seed ignored every
// Fprintf error here).
func TestEventsStopStreamingOnWriteError(t *testing.T) {
	inst := testInstance(t, 48, 40, 3)
	s := newTestSession(t, inst, 24)
	srv := pdsat.NewServer(s)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	created := postJSON(t, ts.URL+"/v1/jobs", `{"kind":"estimate"}`)
	id, _ := created["id"].(string)
	if id == "" {
		t.Fatalf("no job id in %v", created)
	}
	// Drain a healthy stream first: it ends only when the job is done, so
	// afterwards the full event history (24 sample_progress + done) replays
	// to any new subscriber.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	w := &failAfterWriter{header: make(http.Header)}
	req := httptest.NewRequest("GET", "/v1/jobs/"+id+"/events", nil)
	srv.ServeHTTP(w, req) // must return promptly instead of replaying it all
	if w.writes > 2 {
		t.Fatalf("handler attempted %d writes after the connection died, want it to stop at the first failure", w.writes)
	}
}
