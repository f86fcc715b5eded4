package pdsat

import (
	"sync"

	"github.com/paper-repro/pdsat-go/internal/cluster"
)

// Event is a typed progress notification from a running Job.  The concrete
// types are SampleProgress, SearchVisit, EvalPruned, CacheHit,
// NeighborhoodDone, FleetMemberDone, IncumbentImproved, WorkerEvent and
// Done.
//
// Every job's event stream is ordered (events arrive in the order the job
// produced them) and terminates with exactly one Done event — also when the
// job is cancelled or fails.  No events follow the Done.  A fleet job's
// stream interleaves the events of its members; the Member field on the
// per-member event types says which member produced each one (the HTTP
// server can filter a stream down to one member, see Server).
type Event interface {
	// EventKind returns the stable wire name of the event
	// ("sample_progress", "search_visit", "eval_pruned", "cache_hit",
	// "neighborhood_done", "fleet_member_done", "incumbent_improved",
	// "done", or a WorkerEvent's "worker_joined", "worker_lost",
	// "task_stolen" and "speculation_won"); the HTTP server uses it as the
	// SSE event name and NDJSON discriminator.
	EventKind() string
}

// MemberEvent is implemented by event types attributable to one fleet
// member; the server's per-member event filtering uses it.
type MemberEvent interface {
	Event
	// EventMember returns the 0-based fleet member index that produced the
	// event (0 for events of non-fleet jobs).
	EventMember() int
}

// SampleProgress reports one collected subproblem result inside an
// estimation run (a Monte Carlo sample member), a solving run (a member of
// the decomposition family) or a search run (a sample member of the
// evaluation the optimizer is currently performing).  Batches small enough
// to retain report every subproblem; larger ones (solving runs over big
// families) are decimated to evenly spaced notifications, with satisfiable
// results and the batch's final result always reported, so Done counters
// stay monotonic and end at Total.
type SampleProgress struct {
	// Job is the reporting job's ID; Member the 0-based fleet member whose
	// evaluation the sample belongs to (0 for non-fleet jobs).
	Job    string `json:"job"`
	Member int    `json:"member,omitempty"`
	// Done counts the subproblem results collected so far in the current
	// batch; Total is the batch size.  Done == Total on the batch's last
	// notification.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Cost is the subproblem's observed cost in the session's cost metric.
	Cost float64 `json:"cost"`
	// Satisfiable reports whether the subproblem was SAT.
	Satisfiable bool `json:"satisfiable"`
	// Solved distinguishes real solves from placeholders for subproblems
	// cancelled before a solver saw them.
	Solved bool `json:"solved"`
}

// EventKind implements Event.
func (SampleProgress) EventKind() string { return "sample_progress" }

// SearchVisit reports one optimizer step of a search job: a fresh
// evaluation of the predictive function at a candidate decomposition set.
type SearchVisit struct {
	// Job is the reporting job's ID; Member the 0-based fleet member whose
	// search made the visit (0 for non-fleet jobs).
	Job    string `json:"job"`
	Member int    `json:"member,omitempty"`
	// Index is the evaluation number (0-based, cache hits excluded).
	Index int `json:"index"`
	// Vars is the visited decomposition set, sorted by variable index.
	Vars []Var `json:"vars"`
	// Value is the predictive function value F at the visited point.
	Value float64 `json:"value"`
	// Accepted reports whether the point became the new search centre;
	// Improved whether it improved the best known value.
	Accepted bool `json:"accepted"`
	Improved bool `json:"improved"`
	// Pruned reports that the evaluation was aborted by incumbent pruning;
	// Value is then the incumbent F was certified above, not an estimate.
	Pruned bool `json:"pruned,omitempty"`
}

// EventKind implements Event.
func (SearchVisit) EventKind() string { return "search_visit" }

// EvalPruned reports that the evaluation engine aborted a
// predictive-function evaluation because its partial lower bound 2^d·(Σζ)/N
// exceeded the search incumbent: the candidate set is provably worse than
// the best one already found, and the remainder of its sample was skipped.
// The evaluation's value is Incumbent.
type EvalPruned struct {
	// Job is the reporting job's ID; Member the 0-based fleet member whose
	// evaluation was pruned (0 for non-fleet jobs).
	Job    string `json:"job"`
	Member int    `json:"member,omitempty"`
	// Vars is the pruned decomposition set, sorted by variable index.
	Vars []Var `json:"vars"`
	// Incumbent is the best F it was compared against, and F lies above it.
	Incumbent float64 `json:"incumbent"`
	// SamplesSolved of SamplesPlanned subproblems were solved to completion
	// before the abort.  That count depends on when the abort landed — on
	// the backend and the schedule, not on the seed —, and nothing a search
	// decides reads it.
	SamplesSolved  int `json:"samples_solved"`
	SamplesPlanned int `json:"samples_planned"`
}

// EventKind implements Event.
func (EvalPruned) EventKind() string { return "eval_pruned" }

// CacheHit reports that a predictive-function evaluation was served from
// the session's cross-search F-cache without solving any subproblem.
type CacheHit struct {
	// Job is the reporting job's ID; Member the 0-based fleet member whose
	// evaluation was served from the cache (0 for non-fleet jobs).
	Job    string `json:"job"`
	Member int    `json:"member,omitempty"`
	// Vars is the memoized decomposition set, sorted by variable index.
	Vars []Var `json:"vars"`
	// Value is the cached F value (for an entry memoized from a pruned
	// evaluation, the incumbent F was certified above, served only when it
	// still proves the point worse than the search incumbent).
	Value float64 `json:"value"`
	// Pruned marks entries memoized from pruned evaluations.
	Pruned bool `json:"pruned,omitempty"`
}

// EventKind implements Event.
func (CacheHit) EventKind() string { return "cache_hit" }

// EventMember implements MemberEvent for the per-member event types.
func (e SampleProgress) EventMember() int { return e.Member }

// EventMember implements MemberEvent.
func (e SearchVisit) EventMember() int { return e.Member }

// EventMember implements MemberEvent.
func (e EvalPruned) EventMember() int { return e.Member }

// EventMember implements MemberEvent.
func (e CacheHit) EventMember() int { return e.Member }

// NeighborhoodDone reports one completed neighbourhood pass of a search: a
// whole tabu neighbourhood, or one candidate of the simulated annealing.
// Every search emits it.
type NeighborhoodDone struct {
	// Job is the reporting job's ID; Member the 0-based fleet member whose
	// search completed the pass (0 for non-fleet jobs).
	Job    string `json:"job"`
	Member int    `json:"member,omitempty"`
	// Center is the pass's neighbourhood centre, sorted by variable index;
	// Radius its Hamming radius.
	Center []Var `json:"center"`
	Radius int   `json:"radius"`
	// Candidates is the number of candidates drawn for the pass; Evaluated
	// how many were freshly evaluated, Pruned how many of those the
	// incumbent bound cut short, and Cancelled how many were left unvisited
	// because the search stopped during the pass.
	Candidates int `json:"candidates"`
	Evaluated  int `json:"evaluated"`
	Pruned     int `json:"pruned,omitempty"`
	Cancelled  int `json:"cancelled,omitempty"`
	// Improved reports whether the pass improved the search's best value,
	// which BestValue reports as of the end of the pass: absent while the
	// search has none, because every point it evaluated had a censored
	// sample (JSON cannot spell the +Inf it then ranks at).
	Improved  bool     `json:"improved,omitempty"`
	BestValue *float64 `json:"best_value,omitempty"`
}

// EventKind implements Event.
func (NeighborhoodDone) EventKind() string { return "neighborhood_done" }

// EventMember implements MemberEvent.
func (e NeighborhoodDone) EventMember() int { return e.Member }

// FleetMemberDone reports that one member of a fleet job finished its
// search; the fleet job itself keeps running until every member is done
// (or a member's hard error cancels the rest).
type FleetMemberDone struct {
	// Job is the reporting fleet job's ID; Member the finished member's
	// 0-based index.
	Job    string `json:"job"`
	Member int    `json:"member"`
	// Method is the member's search method ("simulated annealing" or
	// "tabu search").
	Method string `json:"method"`
	// SearchSummary is the member's best set and its F (absent if it finished
	// no evaluation), its evaluation count and its stop reason.
	SearchSummary
}

// EventKind implements Event.
func (FleetMemberDone) EventKind() string { return "fleet_member_done" }

// EventMember implements MemberEvent.
func (e FleetMemberDone) EventMember() int { return e.Member }

// IncumbentImproved reports that a fleet member lowered the fleet's global
// shared incumbent: the new best F value immediately tightens the pruning
// bound of every other member's evaluations.  Events arrive in improvement
// order, so Value is strictly decreasing within one fleet job's stream.
type IncumbentImproved struct {
	// Job is the reporting fleet job's ID; Member the improving member's
	// 0-based index.
	Job    string `json:"job"`
	Member int    `json:"member"`
	// Vars is the improving decomposition set; Value its F value, the new
	// fleet-wide incumbent.
	Vars  []Var   `json:"vars"`
	Value float64 `json:"value"`
}

// EventKind implements Event.
func (IncumbentImproved) EventKind() string { return "incumbent_improved" }

// EventMember implements MemberEvent.
func (e IncumbentImproved) EventMember() int { return e.Member }

// WorkerEvent reports what happened to one of the session's cluster workers
// while the job was running (see Session.PublishClusterEvent), under the
// ClusterEvent's kind: worker_joined (Count is the worker's slots),
// worker_lost (Count is how many of its in-flight subproblems were requeued
// onto the remaining workers), task_stolen (Count queued subproblems were
// revoked from this backlogged worker; each is still solved exactly once)
// or speculation_won (this worker's duplicate of Count straggling
// subproblems finished first).  A worker event concerns every fleet member.
type WorkerEvent struct {
	// Kind is the cluster event's kind, the event's wire name.
	Kind cluster.ClusterEventKind `json:"-"`
	// Job is the receiving job's ID; Worker the worker's self-reported name.
	Job    string `json:"job"`
	Worker string `json:"worker"`
	Count  int    `json:"count"`
}

// EventKind implements Event.
func (e WorkerEvent) EventKind() string { return string(e.Kind) }

// Done is the final event of every job's stream: the job finished, failed
// or was cancelled.  Exactly one Done is emitted per job and nothing
// follows it.
type Done struct {
	// Job is the finished job's ID.
	Job string `json:"job"`
	// Err is the job's error message, empty on success.  A cancelled
	// estimation that still produced a partial result carries both the
	// context error here and the partial result on the job.
	Err string `json:"err,omitempty"`
	// Cancelled reports whether the job ended because its context was
	// cancelled (Job.Cancel, session close, or a parent context).
	Cancelled bool `json:"cancelled"`
}

// EventKind implements Event.
func (Done) EventKind() string { return "done" }

// eventLog is a job's append-only event history plus the subscription
// machinery: every subscriber replays the log from the start and then
// follows live appends, so late subscribers (e.g. an HTTP client attaching
// after the job finished) still observe the full ordered stream including
// the terminal Done.  Appending never blocks on subscribers.
type eventLog struct {
	mu     sync.Mutex
	events []Event // guarded by mu
	done   bool    // guarded by mu
	// change exists only while a subscriber may be waiting: snapshot makes
	// it, the next append or finish closes and forgets it.  A job nobody
	// follows live pays for no channel, and no wake-up, per event.
	change chan struct{} // guarded by mu
}

func newEventLog() *eventLog {
	return &eventLog{}
}

// append records an event.  Appends after finish are dropped, which is what
// guarantees that nothing follows a job's Done.
func (l *eventLog) append(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.done {
		return
	}
	l.events = append(l.events, e)
	l.wakeLocked()
}

// finish appends the terminal event and seals the log.
func (l *eventLog) finish(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.done {
		return
	}
	l.events = append(l.events, e)
	l.done = true
	l.wakeLocked()
}

// wakeLocked tells the waiting subscribers, if there are any, that the log
// has changed.
//
// requires mu
func (l *eventLog) wakeLocked() {
	if l.change != nil {
		close(l.change)
		l.change = nil
	}
}

// snapshot returns the events from offset onward, whether the log is
// sealed, and a channel that is closed on the next change after this
// snapshot — also when it returns events: the subscriber delivers them and
// then waits on the channel it was handed with them, so a change in between
// is not lost.  A sealed log changes no more and hands out no channel.
func (l *eventLog) snapshot(offset int) ([]Event, bool, <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if offset > len(l.events) {
		offset = len(l.events)
	}
	if l.change == nil && !l.done {
		l.change = make(chan struct{})
	}
	return l.events[offset:], l.done, l.change
}

// subscribe streams the full ordered event history plus live appends into a
// fresh channel.  The channel is closed after the terminal event has been
// delivered, or early when stop is closed (the stream is then truncated but
// still ordered).  A nil stop never fires, yielding the full stream.
func (l *eventLog) subscribe(stop <-chan struct{}) <-chan Event {
	out := make(chan Event)
	go func() {
		defer close(out)
		offset := 0
		for {
			events, done, change := l.snapshot(offset)
			for _, e := range events {
				select {
				case out <- e:
				case <-stop:
					return
				}
			}
			offset += len(events)
			if done {
				return
			}
			select {
			case <-change:
			case <-stop:
				return
			}
		}
	}()
	return out
}
