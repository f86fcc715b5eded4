package expts

import (
	"context"
	"fmt"
	"slices"

	"github.com/paper-repro/pdsat-go/internal/crypto"
	"github.com/paper-repro/pdsat-go/internal/encoder"
	api "github.com/paper-repro/pdsat-go/pdsat"
)

// grainInstance builds the scaled Grain cryptanalysis instance.
func grainInstance(scale Scale, seed int64) (*encoder.Instance, error) {
	return encoder.NewInstance(encoder.Grain(), encoder.Config{
		KeystreamLen: scale.GrainKeystream,
		KnownSuffix:  scale.GrainKnown,
		KnownPrefix:  scale.GrainKnownPrefix,
		Seed:         seed,
	})
}

// grainRegisters is the Grain state: NFSR then LFSR in start-variable order.
var grainRegisters = []register{
	{"NFSR (b0..b79)", 0, crypto.GrainNFSRLen},
	{"LFSR (s0..s79)", crypto.GrainNFSRLen, crypto.GrainLFSRLen},
}

// figure4 performs the Grain study of Figure 4: the decomposition set found
// by tabu search laid out over NFSR and LFSR, with the split of its variables
// between the two (the paper's notable observation is that the found set lies
// entirely in the LFSR).
func figure4(ctx context.Context, scale Scale) ([]*Table, error) {
	inst, err := grainInstance(scale, scale.Seed)
	if err != nil {
		return nil, err
	}
	searchSession, err := scale.session(inst, scale.runnerConfig(scale.SearchSamples))
	if err != nil {
		return nil, err
	}
	start, err := estimate(ctx, searchSession, nil)
	if err != nil {
		return nil, err
	}
	tabu, err := search(ctx, searchSession, api.MethodTabu)
	if err != nil {
		return nil, err
	}
	best, err := scale.estimateAt(ctx, inst, scale.runnerConfig(scale.EstimateSamples), tabu.BestVars)
	if err != nil {
		return nil, err
	}
	lfsr := 0
	for _, v := range best.Vars {
		if slices.Contains(inst.StartVars[crypto.GrainNFSRLen:crypto.GrainStateBits], v) {
			lfsr++
		}
	}
	return []*Table{registerFigure("Figure 4 — Grain decomposition set found by PDSAT (tabu search)", inst, best.Vars, grainRegisters,
		fmt.Sprintf("|set| = %d (NFSR %d, LFSR %d); F = %s %s; start-set F = %s",
			len(best.Vars), len(best.Vars)-lfsr, lfsr, fmtF(best.Estimate.Value), scale.CostUnit(), fmtF(start.Estimate.Value)),
		"the paper's 69-variable set lies entirely in the LFSR",
		fmt.Sprintf("instance %s, scale %q, %d points visited by the search", inst.Name, scale.Name, tabu.Evaluations),
	)}, nil
}
