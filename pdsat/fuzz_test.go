package pdsat

import (
	"encoding/json"
	"sync"
	"testing"

	"github.com/paper-repro/pdsat-go/internal/cnf"
)

// fuzzSession lazily builds one tiny session shared by all fuzz iterations
// (spec validation never solves anything, so the formula can be trivial).
var fuzzSession = sync.OnceValues(func() (*Session, error) {
	f := cnf.New(4)
	f.AddClauseLits(cnf.Lit(1), cnf.Lit(2))
	f.AddClauseLits(cnf.Lit(-1), cnf.Lit(3))
	f.AddClauseLits(cnf.Lit(-2), cnf.Lit(4))
	return NewSession(FromFormula("fuzz", f, []cnf.Var{1, 2, 3}), Config{
		Runner: RunnerConfig{SampleSize: 4, Workers: 1},
	})
})

// FuzzServerJobSpec throws arbitrary bytes at the HTTP job-submission
// decoding path — DecodeJobSpec → Validate — which must reject garbage with
// errors, never panic or accept a spec whose run would blow up (oversized
// fleets, fields of no kind, negative budgets), and what it accepts is one
// JSON value with nothing after it.
func FuzzServerJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{"kind":"estimate"}`,
		`{"kind":"estimate","vars":[1,2],"policy":{"prune":true,"stages":3,"epsilon":0.1,"cache":true}}`,
		`{"kind":"search","method":"sa","start":[1,2,3]}`,
		`{"kind":"solve","stop_on_sat":true,"max_subproblems":16}`,
		`{"kind":"fleet","members":[{"method":"tabu","count":4},{"method":"sa","count":4}],"seed":7}`,
		`{"kind":"fleet","members":[{"method":"tabu","count":2000000000}]}`,
		`{"kind":"fleet","members":[{"method":"tabu"}],"jitter":-5,"target_f":-1}`,
		`{"kind":"fleet","members":[],"max_evaluations":-3}`,
		`{"kind":"search","method":"genetic"}`,
		`{"kind":"estimate","vars":[0,-7,99999999]}`,
		`{"kind":"solve","policy":{"stages":2}}`,
		`{"kind":""}`,
		`{}`,
		`{"kind":"fleet","members":[{"method":"tabu","start":[4]}],"seed":-9223372036854775808}`,
		`not json at all`,
		`{"kind":"estimate","vars":"nope"}`,
		`{"kind":"estimate","stop_on_sat":true}`, // a field of another kind
		`{"kind":"search","metod":"sa"}`,         // a misspelt field
		`{"kind":"estimate"} {"kind":"solve"}`,   // trailing bytes
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := fuzzSession()
		if err != nil {
			t.Fatal(err)
		}
		spec, err := DecodeJobSpec(data)
		if err != nil {
			return
		}
		if !json.Valid(data) {
			t.Fatalf("accepted a body that is not one JSON value: %q", data)
		}
		if err := spec.Validate(s); err != nil {
			return
		}
		// An accepted fleet spec must have expanded within bounds; re-expand
		// to check the invariant the runner relies on.
		if fj, ok := spec.(FleetJob); ok {
			members, _, err := fj.expand(s)
			if err != nil {
				t.Fatalf("validated fleet spec fails to expand: %v", err)
			}
			if len(members) == 0 || len(members) > MaxFleetMembers {
				t.Fatalf("validated fleet spec expands to %d members", len(members))
			}
		}
	})
}
