package encoder

import (
	"testing"

	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/solver"
)

func TestKnownPrefixWeakening(t *testing.T) {
	inst, err := NewInstance(Grain(), Config{
		KeystreamLen: 40,
		KnownPrefix:  75,
		KnownSuffix:  70,
		Seed:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if inst.KnownPrefix != 75 || inst.KnownSuffix != 70 {
		t.Fatalf("weakening metadata: %+v", inst)
	}
	unknown := inst.UnknownStartVars()
	if len(unknown) != 160-75-70 {
		t.Fatalf("unknown vars = %d, want %d", len(unknown), 160-75-70)
	}
	// The unknown variables are exactly StartVars[75:90].
	for i, v := range unknown {
		if v != inst.StartVars[75+i] {
			t.Fatalf("unknown var %d = %d, want %d", i, v, inst.StartVars[75+i])
		}
	}
	// The instance remains satisfiable and solves to a state reproducing the
	// keystream.
	res := solver.NewDefault(inst.CNF).Solve()
	if res.Status != solver.Sat {
		t.Fatalf("prefix+suffix weakened Grain should be SAT, got %v", res.Status)
	}
	ok, err := inst.CheckRecoveredState(Grain(), res.Model)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("recovered state does not reproduce the keystream")
	}
	// The fixed prefix variables must take their secret values in any model.
	for i := 0; i < 75; i++ {
		want := cnf.False
		if inst.Secret[i] {
			want = cnf.True
		}
		if res.Model.Value(inst.StartVars[i]) != want {
			t.Fatalf("prefix variable %d not fixed to its secret value", i)
		}
	}
	if inst.Name == "" || inst.String() == "" {
		t.Fatal("naming")
	}
}

func TestKnownPrefixValidation(t *testing.T) {
	if _, err := NewInstance(A51(), Config{KnownPrefix: -1}); err == nil {
		t.Fatal("expected error for negative prefix")
	}
	if _, err := NewInstance(A51(), Config{KnownPrefix: 40, KnownSuffix: 30}); err == nil {
		t.Fatal("expected error when prefix+suffix cover the whole state")
	}
	// Exactly one unknown bit is still allowed.
	inst, err := NewInstance(A51(), Config{KeystreamLen: 10, KnownPrefix: 40, KnownSuffix: 23, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(inst.UnknownStartVars()) != 1 {
		t.Fatalf("unknown vars = %d, want 1", len(inst.UnknownStartVars()))
	}
}

// TestWeakenPreservesPrefix: a known prefix and a known suffix weaken one
// instance together, each recorded, and only the bits between them stay
// unknown.
func TestWeakenPreservesPrefix(t *testing.T) {
	inst, err := NewInstance(Grain(), Config{KeystreamLen: 20, KnownPrefix: 10, KnownSuffix: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if inst.KnownPrefix != 10 || inst.KnownSuffix != 30 {
		t.Fatalf("weakening metadata lost: prefix %d, suffix %d", inst.KnownPrefix, inst.KnownSuffix)
	}
	unknown := inst.UnknownStartVars()
	if len(unknown) != 160-10-30 {
		t.Fatalf("unknown vars = %d, want %d", len(unknown), 160-10-30)
	}
	if unknown[0] != inst.StartVars[10] || unknown[len(unknown)-1] != inst.StartVars[160-30-1] {
		t.Fatalf("unknown vars %v…%v are not the start variables between prefix and suffix", unknown[0], unknown[len(unknown)-1])
	}
}
