package pdsat_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"github.com/paper-repro/pdsat-go/pdsat"
)

// fleetTestConfig is the fixed-seed configuration of the fleet regression
// tests; pol == nil means the zero policy (full-sample evaluations).
func fleetTestConfig(sample int, pol *pdsat.EvalPolicy) pdsat.Config {
	cfg := pdsat.Config{
		Runner: pdsat.RunnerConfig{
			SampleSize: sample,
			Workers:    2,
			Seed:       1,
			CostMetric: pdsat.CostPropagations,
		},
		Search: pdsat.SearchOptions{Seed: 1, MaxEvaluations: 10},
		Cores:  480,
	}
	if pol != nil {
		cfg.Runner.Policy = *pol
	}
	return cfg
}

// sameSearchResult compares two search results bit for bit: best point and
// value, evaluation count, stop reason and the full visit trace, pruned
// visits' values included (a pruned evaluation reports its incumbent).
func sameSearchResult(t *testing.T, label string, got, want *pdsat.SearchResult) {
	t.Helper()
	if got.BestValue != want.BestValue {
		t.Fatalf("%s: best F %v != %v", label, got.BestValue, want.BestValue)
	}
	gv, wv := got.BestPoint.SortedVars(), want.BestPoint.SortedVars()
	if len(gv) != len(wv) {
		t.Fatalf("%s: best set size %d != %d", label, len(gv), len(wv))
	}
	for i := range gv {
		if gv[i] != wv[i] {
			t.Fatalf("%s: best sets differ at %d: %v vs %v", label, i, gv, wv)
		}
	}
	if got.Evaluations != want.Evaluations || got.Stop != want.Stop {
		t.Fatalf("%s: run shape differs: %d/%s vs %d/%s", label,
			got.Evaluations, got.Stop, want.Evaluations, want.Stop)
	}
	if len(got.Trace) != len(want.Trace) {
		t.Fatalf("%s: trace length %d != %d", label, len(got.Trace), len(want.Trace))
	}
	for i := range got.Trace {
		g, w := got.Trace[i], want.Trace[i]
		if g.Point.Key() != w.Point.Key() || g.Value != w.Value ||
			g.Accepted != w.Accepted || g.Improved != w.Improved || g.Pruned != w.Pruned {
			t.Fatalf("%s: trace visit %d differs: %+v vs %+v", label, i, g, w)
		}
	}
}

// TestFleetOfOneBitIdenticalToDirectSearch is the PR's central regression
// gate: a fleet of one tabu member with root seed r must be bit-identical —
// best F, full trace, and the best-set estimate's sample statistics — to the
// direct SearchJob path on a session configured with the member's derived
// sub-seeds (RunnerConfig.Seed = SubSeed(r,0), SearchOptions.Seed =
// SubSeed(r,1)).  Checked with the zero policy and with the default policy
// (pruning + staging + F-cache).
func TestFleetOfOneBitIdenticalToDirectSearch(t *testing.T) {
	inst := testInstance(t, 46, 40, 3)
	def := pdsat.DefaultEvalPolicy()
	for _, tc := range []struct {
		name string
		pol  *pdsat.EvalPolicy
	}{
		{"zero-policy", nil},
		{"default-policy", &def},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const root = int64(9)
			fleetSession, err := pdsat.NewSession(pdsat.FromInstance(inst), fleetTestConfig(12, tc.pol))
			if err != nil {
				t.Fatal(err)
			}
			outcome := mustRun(t, fleetSession, pdsat.FleetJob{
				Members: []pdsat.FleetMemberSpec{{Method: "tabu"}},
				Seed:    root,
			}).Fleet
			if len(outcome.Members) != 1 || outcome.BestMember != 0 {
				t.Fatalf("fleet of one reported %d members, winner %d", len(outcome.Members), outcome.BestMember)
			}
			member := outcome.Members[0]
			if member.EvalSeed != pdsat.SubSeed(root, 0) || member.SearchSeed != pdsat.SubSeed(root, 1) {
				t.Fatalf("member seeds %d/%d do not follow the SubSeed rule", member.EvalSeed, member.SearchSeed)
			}

			directCfg := fleetTestConfig(12, tc.pol)
			directCfg.Runner.Seed = pdsat.SubSeed(root, 0)
			directCfg.Search.Seed = pdsat.SubSeed(root, 1)
			directSession, err := pdsat.NewSession(pdsat.FromInstance(inst), directCfg)
			if err != nil {
				t.Fatal(err)
			}
			direct := mustRun(t, directSession, pdsat.SearchJob{Method: pdsat.MethodTabu}).Search

			sameSearchResult(t, tc.name, member.Result, direct.Result)
			if member.Best == nil || direct.Best == nil {
				t.Fatal("missing best-set estimate")
			}
			if member.Best.Estimate.Value != direct.Best.Estimate.Value ||
				member.Best.Estimate.SampleSize != direct.Best.Estimate.SampleSize ||
				member.Best.SatisfiableSamples != direct.Best.SatisfiableSamples ||
				member.Best.CacheHit != direct.Best.CacheHit {
				t.Fatalf("best-set estimates differ: %+v vs %+v", member.Best, direct.Best)
			}
		})
	}
}

// TestMixedFleetDeterministicPerMember races a tabu:2,sa:2 fleet twice under
// the zero policy, with no fleet flag set, and checks every member starts at
// the fleet's start set and reproduces its best point, best value and
// evaluation count exactly: goroutine interleaving must not leak into
// per-member results.
func TestMixedFleetDeterministicPerMember(t *testing.T) {
	inst := testInstance(t, 46, 40, 3)
	run := func() *pdsat.FleetOutcome {
		s, err := pdsat.NewSession(pdsat.FromInstance(inst), fleetTestConfig(8, nil))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		return mustRun(t, s, pdsat.FleetJob{
			Members: []pdsat.FleetMemberSpec{
				{Method: "tabu", Count: 2},
				{Method: "sa", Count: 2},
			},
			Seed:           11,
			MaxEvaluations: 24,
		}).Fleet
	}
	a, b := run(), run()
	if len(a.Members) != 4 || len(b.Members) != 4 {
		t.Fatalf("expected 4 members, got %d and %d", len(a.Members), len(b.Members))
	}
	for i := range a.Members {
		ma, mb := a.Members[i], b.Members[i]
		if ma.Method != mb.Method || ma.EvalSeed != mb.EvalSeed || ma.SearchSeed != mb.SearchSeed {
			t.Fatalf("member %d identity differs across runs", i)
		}
		if len(ma.StartVars) != len(mb.StartVars) {
			t.Fatalf("member %d start sets differ across runs", i)
		}
		for k := range ma.StartVars {
			if ma.StartVars[k] != mb.StartVars[k] {
				t.Fatalf("member %d start sets differ across runs: %v vs %v", i, ma.StartVars, mb.StartVars)
			}
		}
		sameSearchResult(t, "member", ma.Result, mb.Result)
	}
	if a.BestMember != b.BestMember || a.BestValue != b.BestValue {
		t.Fatalf("winner differs across runs: %d/%v vs %d/%v", a.BestMember, a.BestValue, b.BestMember, b.BestValue)
	}
	full := len(inst.UnknownStartVars())
	for i, m := range a.Members {
		if len(m.StartVars) != full {
			t.Fatalf("member %d starts at %d of the %d start variables, want the fleet's full start set", i, len(m.StartVars), full)
		}
	}
}

// TestFleetJobEvents checks the fleet job's event stream: member-tagged
// visits, exactly one FleetMemberDone per member, strictly decreasing
// IncumbentImproved values, and the single terminal Done.
func TestFleetJobEvents(t *testing.T) {
	inst := testInstance(t, 46, 40, 3)
	def := pdsat.DefaultEvalPolicy()
	s, err := pdsat.NewSession(pdsat.FromInstance(inst), fleetTestConfig(8, &def))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	j, err := s.Submit(context.Background(), pdsat.FleetJob{
		Members:        []pdsat.FleetMemberSpec{{Method: "tabu"}, {Method: "sa"}},
		Seed:           5,
		MaxEvaluations: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()

	memberDone := map[int]int{}
	var improvements []float64
	visits := 0
	var last pdsat.Event
	for e := range j.Events() {
		last = e
		switch ev := e.(type) {
		case pdsat.FleetMemberDone:
			memberDone[ev.Member]++
			if ev.Method == "" || ev.Stop == "" {
				t.Fatalf("FleetMemberDone missing method/stop: %+v", ev)
			}
		case pdsat.IncumbentImproved:
			improvements = append(improvements, ev.Value)
			if ev.Member < 0 || ev.Member > 1 {
				t.Fatalf("IncumbentImproved from out-of-range member %d", ev.Member)
			}
		case pdsat.SearchVisit:
			visits++
			if ev.Member < 0 || ev.Member > 1 {
				t.Fatalf("SearchVisit from out-of-range member %d", ev.Member)
			}
		}
	}
	if _, ok := last.(pdsat.Done); !ok {
		t.Fatalf("stream did not end with Done but %T", last)
	}
	if memberDone[0] != 1 || memberDone[1] != 1 {
		t.Fatalf("expected exactly one FleetMemberDone per member, got %v", memberDone)
	}
	if visits == 0 {
		t.Fatal("no member-tagged search visits")
	}
	if len(improvements) == 0 {
		t.Fatal("no incumbent improvements reported")
	}
	for i := 1; i < len(improvements); i++ {
		if improvements[i] >= improvements[i-1] {
			t.Fatalf("incumbent improvements not strictly decreasing: %v", improvements)
		}
	}

	res, err := j.Result(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Fleet == nil || len(res.Fleet.Members) != 2 {
		t.Fatalf("fleet job result malformed: %+v", res)
	}
	if res.Fleet.BestMember < 0 || math.IsInf(res.Fleet.BestValue, 1) {
		t.Fatalf("fleet found no winner: %+v", res.Fleet)
	}
	if res.Fleet.Best == nil {
		t.Fatal("missing winner estimate")
	}
}

// TestFleetJobValidation covers the submit-time error paths.
func TestFleetJobValidation(t *testing.T) {
	inst := testInstance(t, 46, 40, 3)
	s, err := pdsat.NewSession(pdsat.FromInstance(inst), fleetTestConfig(8, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	bad := []pdsat.FleetJob{
		{},
		{Members: []pdsat.FleetMemberSpec{{Method: "genetic"}}},
		{Members: []pdsat.FleetMemberSpec{{Method: "tabu", Count: -1}}},
		{Members: []pdsat.FleetMemberSpec{{Method: "tabu", Count: pdsat.MaxFleetMembers + 1}}},
		{Members: []pdsat.FleetMemberSpec{{Method: "tabu"}}, Policy: &pdsat.EvalPolicy{Stages: 3, Epsilon: math.NaN()}},
		{Members: []pdsat.FleetMemberSpec{{Method: "tabu"}}, MaxEvaluations: -1},
		// A fleet-total budget below the member count would hand some
		// members a zero (= unlimited) budget.
		{Members: []pdsat.FleetMemberSpec{{Method: "tabu", Count: 4}}, MaxEvaluations: 3},
		{Members: []pdsat.FleetMemberSpec{{Method: "tabu"}}, Start: []pdsat.Var{999999}},
		{Members: []pdsat.FleetMemberSpec{{Method: "tabu"}}, Policy: &pdsat.EvalPolicy{Stages: -1}},
	}
	for i, spec := range bad {
		if _, err := s.Submit(context.Background(), spec); err == nil {
			t.Fatalf("bad fleet spec %d accepted", i)
		}
	}
	// A jitter, a target F and a per-group start are no fleet fields: the
	// decoder refuses them before anything is validated.
	for _, body := range []string{
		`{"kind":"fleet","members":[{"method":"tabu"}],"jitter":-1}`,
		`{"kind":"fleet","members":[{"method":"tabu"}],"jitter":10000}`,
		`{"kind":"fleet","members":[{"method":"tabu"}],"target_f":-1}`,
		`{"kind":"fleet","members":[{"method":"tabu"}],"target_f":1e308}`,
		`{"kind":"fleet","members":[{"method":"tabu","start":[999999]}]}`,
	} {
		if _, err := pdsat.DecodeJobSpec([]byte(body)); err == nil || !strings.Contains(err.Error(), "json: unknown field") {
			t.Errorf("%s: decode error %v, want an unknown field", body, err)
		}
	}
	if n := len(s.Jobs()); n != 0 {
		t.Fatalf("%d jobs started by refused fleet specs", n)
	}
}
