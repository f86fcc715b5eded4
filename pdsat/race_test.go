package pdsat_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"github.com/paper-repro/pdsat-go/pdsat"
)

// TestSessionConcurrentJobsStress is the race-detector stress test of the
// session layer (CI runs the suite under -race): one session with several
// jobs of every kind in flight at once — estimate, fleet search, direct
// search and a bounded solve — each with competing Subscribe readers (one of
// which detaches mid-stream) while one job is cancelled mid-flight.  The
// assertions are the stream invariants: every job finishes, every surviving
// subscriber observes a stream terminated by exactly one Done, and the
// session stats stay coherent.
func TestSessionConcurrentJobsStress(t *testing.T) {
	inst := testInstance(t, 46, 40, 3)
	def := pdsat.DefaultEvalPolicy()
	cfg := fleetTestConfig(8, &def)
	cfg.Runner.Workers = 4
	s, err := pdsat.NewSession(pdsat.FromInstance(inst), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx := context.Background()
	jobs := make([]*pdsat.Job, 0, 5)
	submit := func(spec pdsat.JobSpec) *pdsat.Job {
		t.Helper()
		j, err := s.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
		return j
	}

	submit(pdsat.EstimateJob{})
	fleet := submit(pdsat.FleetJob{
		Members:        []pdsat.FleetMemberSpec{{Method: "tabu", Count: 2}, {Method: "sa"}},
		Seed:           7,
		MaxEvaluations: 18,
	})
	if fleet.Kind() != pdsat.JobFleet {
		t.Fatalf("fleet job kind %q", fleet.Kind())
	}
	submit(pdsat.SearchJob{Method: "tabu"})
	victim := submit(pdsat.SolveJob{MaxSubproblems: 4096})
	submit(pdsat.EstimateJob{})

	// Competing readers: two full subscribers and one that detaches early,
	// per job.
	var wg sync.WaitGroup
	for _, j := range jobs {
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func(j *pdsat.Job) {
				defer wg.Done()
				var last pdsat.Event
				n := 0
				for e := range j.Events() {
					last = e
					n++
				}
				if _, ok := last.(pdsat.Done); !ok {
					t.Errorf("job %s: stream of %d events did not end with Done (%T)", j.ID(), n, last)
				}
			}(j)
		}
		wg.Add(1)
		go func(j *pdsat.Job) {
			defer wg.Done()
			dctx, cancel := context.WithCancel(ctx)
			ch := j.Subscribe(dctx)
			for i := 0; i < 3; i++ {
				if _, ok := <-ch; !ok {
					break
				}
			}
			cancel() // detach mid-stream; the channel must close promptly
			for range ch {
			}
		}(j)
	}

	// Cancel the solve once it has made some progress.
	wg.Add(1)
	go func() {
		defer wg.Done()
		seen := 0
		for range victim.Subscribe(ctx) {
			seen++
			if seen == 8 {
				victim.Cancel()
			}
		}
	}()

	for _, j := range jobs {
		select {
		case <-j.Done():
		case <-time.After(180 * time.Second):
			t.Fatalf("job %s (%s) did not finish", j.ID(), j.Kind())
		}
	}
	wg.Wait()

	if !victim.Finished() {
		t.Fatal("cancelled solve job not finished")
	}
	for _, j := range jobs {
		if j == victim {
			continue
		}
		if _, err := j.Result(ctx); err != nil {
			t.Fatalf("job %s (%s) failed: %v", j.ID(), j.Kind(), err)
		}
	}
	stats := s.Stats()
	if stats.Evaluations == 0 || stats.SubproblemsSolved == 0 {
		t.Fatalf("session stats empty after five jobs: %+v", stats)
	}
}

// TestStatsSnapshotNeverOverdrawn: Stats is one snapshot of the runner's
// ledger, so read at any moment of a running job it never shows more samples
// solved, aborted and skipped than were planned — a sample is planned before
// it is dispatched and settled after — and once the job is done it balances.
// (Ten getters under ten locks could straddle an evaluation and read the
// ledger overdrawn.)
func TestStatsSnapshotNeverOverdrawn(t *testing.T) {
	inst := testInstance(t, 46, 40, 3)
	def := pdsat.DefaultEvalPolicy()
	s, err := pdsat.NewSession(pdsat.FromInstance(inst), fleetTestConfig(8, &def))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	settled := func(st pdsat.SessionStats) int {
		return st.SubproblemsSolved + st.SubproblemsAborted + st.SamplesSkipped
	}
	stop, polled := make(chan struct{}), make(chan int)
	go func() {
		n := 0
		defer func() { polled <- n }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if st := s.Stats(); settled(st) > st.SamplesPlanned {
				t.Errorf("snapshot %d is overdrawn: %d planned, %d settled: %+v", n, st.SamplesPlanned, settled(st), st.Counters)
				return
			}
			n++
		}
	}()
	_, err = s.Run(context.Background(), pdsat.FleetJob{
		Members:        []pdsat.FleetMemberSpec{{Method: "tabu", Count: 2}, {Method: "sa", Count: 2}},
		Seed:           11,
		MaxEvaluations: 24,
	})
	close(stop)
	if n := <-polled; n == 0 && !t.Failed() {
		t.Error("no snapshot was taken while the fleet ran")
	}
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.SamplesPlanned == 0 || settled(st) != st.SamplesPlanned {
		t.Fatalf("at rest the ledger does not balance: %d planned, %d settled: %+v", st.SamplesPlanned, settled(st), st.Counters)
	}
}
