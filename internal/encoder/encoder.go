// Package encoder builds SAT instances encoding the cryptanalysis problems
// studied in the paper: given an observed keystream fragment produced by a
// keystream generator, find a register state that produces it.
//
// An Instance bundles the CNF with the metadata the partitioning machinery
// needs: the list of "starting variables" (the circuit inputs, which form a
// Strong Unit-Propagation Backdoor Set and are used as the initial
// decomposition set X̃_start), the keystream, and — because every instance
// is generated from a known random secret — the secret itself, which enables
// the BiviumK/GrainK weakenings of Section 4.4 and end-to-end validation of
// recovered keys.
package encoder

import (
	"fmt"
	"math/rand"

	"github.com/paper-repro/pdsat-go/internal/circuit"
	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/crypto"
)

// Instance is a cryptanalysis SAT instance.
type Instance struct {
	// Name identifies the instance (e.g. "bivium-l60-seed7-k150").
	Name string
	// CNF is the encoded formula, including the keystream constraints and
	// any weakening unit clauses.
	CNF *cnf.Formula
	// StartVars are the CNF variables of the circuit inputs (the unknown
	// register state), in cipher order.  They form the initial
	// decomposition set of the paper's search.
	StartVars []cnf.Var
	// OutputVars are the CNF variables of the keystream bits.
	OutputVars []cnf.Var
	// Secret is the state used to generate the keystream (StartVars order).
	Secret []bool
	// Keystream is the observed keystream fragment.
	Keystream []bool
	// KnownSuffix is the number of trailing start variables fixed by
	// weakening (the K of BiviumK / GrainK).
	KnownSuffix int
	// KnownPrefix is the number of leading start variables fixed by
	// weakening.  The paper only uses suffix weakenings; the prefix variant
	// exists so scaled-down Grain instances can keep part of the LFSR (the
	// second register) unknown, which is where the paper's best
	// decomposition sets live.
	KnownPrefix int
	// Generator names the underlying cipher ("a5/1", "bivium", "grain").
	Generator string
}

// Config controls instance generation.
type Config struct {
	// KeystreamLen is the number of observed keystream bits.  Zero selects
	// the paper's default for the generator (114 for A5/1, 200 for Bivium,
	// 160 for Grain).
	KeystreamLen int
	// KnownSuffix fixes that many trailing state variables to their secret
	// values with unit clauses (the BiviumK/GrainK weakening).  Zero means
	// no weakening.
	KnownSuffix int
	// KnownPrefix fixes that many leading state variables to their secret
	// values.  It may be combined with KnownSuffix; together they must not
	// cover the whole state.
	KnownPrefix int
	// Seed drives the random secret state.
	Seed int64
}

// Generator builds cryptanalysis instances for one cipher.
type Generator struct {
	// Name is the cipher name.
	Name string
	// StateBits is the number of unknown state bits.
	StateBits int
	// DefaultKeystreamLen is the keystream length used in the paper.
	DefaultKeystreamLen int
	// Build constructs the circuit for the given keystream length.
	Build func(keystreamLen int) *circuit.Circuit
	// Keystream runs the reference implementation.
	Keystream func(state []bool, n int) ([]bool, error)
	// RandomState draws a uniformly random state.
	RandomState func(rng *rand.Rand) []bool
}

// A51 returns the generator description for the A5/1 cipher.
func A51() Generator {
	return Generator{
		Name:                "a5/1",
		StateBits:           crypto.A51StateBits,
		DefaultKeystreamLen: crypto.A51KeystreamLen,
		Build:               crypto.BuildA51Circuit,
		Keystream:           crypto.A51Keystream,
		RandomState:         crypto.RandomA51State,
	}
}

// Bivium returns the generator description for the Bivium cipher.
func Bivium() Generator {
	return Generator{
		Name:                "bivium",
		StateBits:           crypto.BiviumStateBits,
		DefaultKeystreamLen: crypto.BiviumKeystreamLen,
		Build:               crypto.BuildBiviumCircuit,
		Keystream:           crypto.BiviumKeystream,
		RandomState:         crypto.RandomBiviumState,
	}
}

// Grain returns the generator description for the Grain cipher.
func Grain() Generator {
	return Generator{
		Name:                "grain",
		StateBits:           crypto.GrainStateBits,
		DefaultKeystreamLen: crypto.GrainKeystreamLen,
		Build:               crypto.BuildGrainCircuit,
		Keystream:           crypto.GrainKeystream,
		RandomState:         crypto.RandomGrainState,
	}
}

// ByName returns the generator with the given name.
func ByName(name string) (Generator, error) {
	switch name {
	case "a5/1", "a51":
		return A51(), nil
	case "bivium":
		return Bivium(), nil
	case "grain":
		return Grain(), nil
	default:
		return Generator{}, fmt.Errorf("encoder: unknown generator %q", name)
	}
}

// NewInstance builds a cryptanalysis instance for the generator: a random
// secret state is drawn from cfg.Seed, the reference implementation produces
// the keystream, the circuit is Tseitin-encoded and the keystream is added
// as unit constraints.  If cfg.KnownSuffix > 0 the last KnownSuffix start
// variables are additionally fixed to their secret values (the weakened
// problems of Section 4.4).
func NewInstance(gen Generator, cfg Config) (*Instance, error) {
	ksLen := cfg.KeystreamLen
	if ksLen <= 0 {
		ksLen = gen.DefaultKeystreamLen
	}
	if cfg.KnownSuffix < 0 || cfg.KnownSuffix > gen.StateBits {
		return nil, fmt.Errorf("encoder: KnownSuffix %d out of range [0,%d]", cfg.KnownSuffix, gen.StateBits)
	}
	if cfg.KnownPrefix < 0 || cfg.KnownPrefix+cfg.KnownSuffix >= gen.StateBits {
		return nil, fmt.Errorf("encoder: KnownPrefix %d and KnownSuffix %d leave no unknown state bits (state has %d)",
			cfg.KnownPrefix, cfg.KnownSuffix, gen.StateBits)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	secret := gen.RandomState(rng)
	keystream, err := gen.Keystream(secret, ksLen)
	if err != nil {
		return nil, fmt.Errorf("encoder: keystream generation: %w", err)
	}
	circ := gen.Build(ksLen)
	enc, err := circ.Encode()
	if err != nil {
		return nil, fmt.Errorf("encoder: Tseitin encoding: %w", err)
	}
	if err := enc.ConstrainOutputs(keystream); err != nil {
		return nil, fmt.Errorf("encoder: output constraints: %w", err)
	}
	name := fmt.Sprintf("%s-l%d-seed%d-k%d", gen.Name, ksLen, cfg.Seed, cfg.KnownSuffix)
	if cfg.KnownPrefix > 0 {
		name += fmt.Sprintf("-p%d", cfg.KnownPrefix)
	}
	inst := &Instance{
		Name:        name,
		CNF:         enc.CNF,
		StartVars:   enc.InputVars,
		OutputVars:  enc.OutputVars,
		Secret:      secret,
		Keystream:   keystream,
		KnownSuffix: cfg.KnownSuffix,
		Generator:   gen.Name,
	}
	inst.CNF.Comments = append(inst.CNF.Comments,
		fmt.Sprintf("cryptanalysis instance %s", inst.Name),
		fmt.Sprintf("start variables: 1..%d", len(inst.StartVars)),
	)
	if cfg.KnownSuffix > 0 {
		applyKnownSuffix(inst, cfg.KnownSuffix)
	}
	if cfg.KnownPrefix > 0 {
		applyKnownPrefix(inst, cfg.KnownPrefix)
	}
	return inst, nil
}

// applyKnownPrefix adds unit clauses fixing the first p start variables to
// their secret values.
func applyKnownPrefix(inst *Instance, p int) {
	for i := 0; i < p; i++ {
		v := inst.StartVars[i]
		inst.CNF.AddClause(cnf.Clause{cnf.NewLit(v, inst.Secret[i])})
	}
	inst.KnownPrefix = p
}

// applyKnownSuffix adds unit clauses fixing the last k start variables to
// their secret values.
func applyKnownSuffix(inst *Instance, k int) {
	n := len(inst.StartVars)
	for i := n - k; i < n; i++ {
		v := inst.StartVars[i]
		inst.CNF.AddClause(cnf.Clause{cnf.NewLit(v, inst.Secret[i])})
	}
	inst.KnownSuffix = k
}

// UnknownStartVars returns the start variables that are not fixed by the
// weakening, i.e. the candidates for decomposition-set search.
func (in *Instance) UnknownStartVars() []cnf.Var {
	lo := in.KnownPrefix
	hi := len(in.StartVars) - in.KnownSuffix
	if lo > hi {
		lo = hi
	}
	return append([]cnf.Var(nil), in.StartVars[lo:hi]...)
}

// SecretAssignment returns the secret state as an assignment of the start
// variables (useful for validation and for constructing satisfiable
// subproblems in tests).
func (in *Instance) SecretAssignment() cnf.Assignment {
	a := cnf.NewAssignment(in.CNF.NumVars)
	for i, v := range in.StartVars {
		if in.Secret[i] {
			a.Set(v, cnf.True)
		} else {
			a.Set(v, cnf.False)
		}
	}
	return a
}

// CheckRecoveredState verifies that a model of the CNF reproduces the
// observed keystream: it extracts the start-variable values from the model,
// runs the reference implementation and compares.  This is the end-to-end
// "did we actually recover a valid key" check.
func (in *Instance) CheckRecoveredState(gen Generator, model cnf.Assignment) (bool, error) {
	state := make([]bool, len(in.StartVars))
	for i, v := range in.StartVars {
		switch model.Value(v) {
		case cnf.True:
			state[i] = true
		case cnf.False:
			state[i] = false
		default:
			return false, fmt.Errorf("encoder: model leaves start variable %d unassigned", v)
		}
	}
	ks, err := gen.Keystream(state, len(in.Keystream))
	if err != nil {
		return false, err
	}
	for i := range ks {
		if ks[i] != in.Keystream[i] {
			return false, nil
		}
	}
	return true, nil
}

// String returns a short description of the instance.
func (in *Instance) String() string {
	return fmt.Sprintf("%s{vars=%d clauses=%d start=%d known=%d}",
		in.Name, in.CNF.NumVars, in.CNF.NumClauses(), len(in.StartVars), in.KnownSuffix+in.KnownPrefix)
}
