package expts

import (
	"context"
	"fmt"

	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/crypto"
	"github.com/paper-repro/pdsat-go/internal/encoder"
	api "github.com/paper-repro/pdsat-go/pdsat"
)

// GrainResult bundles the Grain experiment of Figure 4: the decomposition
// set found by tabu search and the split of its variables between the NFSR
// and the LFSR (the paper's notable observation is that the found set lies
// entirely in the LFSR).
type GrainResult struct {
	Scale    Scale
	Instance *encoder.Instance
	// Searched is the set found by tabu search with its estimate.
	Searched SetReport
	// StartF is the predictive value of the full start set, for reference.
	StartF float64
	// NFSRCount and LFSRCount split the found set between the registers.
	NFSRCount int
	LFSRCount int
	// TabuEvaluations counts the points visited by the search.
	TabuEvaluations int
}

// GrainInstance builds the scaled Grain cryptanalysis instance.
func GrainInstance(scale Scale, seed int64) (*encoder.Instance, error) {
	return encoder.NewInstance(encoder.Grain(), encoder.Config{
		KeystreamLen: scale.GrainKeystream,
		KnownSuffix:  scale.GrainKnown,
		KnownPrefix:  scale.GrainKnownPrefix,
		Seed:         seed,
	})
}

// RunGrain performs the Grain study (Figure 4).
func RunGrain(ctx context.Context, scale Scale) (*GrainResult, error) {
	inst, err := GrainInstance(scale, scale.Seed)
	if err != nil {
		return nil, err
	}
	res := &GrainResult{Scale: scale, Instance: inst}

	searchSession, err := scale.session(inst, scale.runnerConfig(scale.SearchSamples))
	if err != nil {
		return nil, err
	}
	start, err := estimate(ctx, searchSession, nil)
	if err != nil {
		return nil, err
	}
	res.StartF = start.Estimate.Value

	tabu, err := search(ctx, searchSession, api.MethodTabu)
	if err != nil {
		return nil, err
	}
	res.TabuEvaluations = tabu.Evaluations

	estSession, err := scale.session(inst, scale.runnerConfig(scale.EstimateSamples))
	if err != nil {
		return nil, err
	}
	best, err := estimate(ctx, estSession, tabu.BestVars)
	if err != nil {
		return nil, err
	}
	res.Searched = report("Found by PDSAT (tabu search)", best)

	for _, v := range best.Vars {
		if grainVarIsLFSR(inst, v) {
			res.LFSRCount++
		} else {
			res.NFSRCount++
		}
	}
	return res, nil
}

// grainVarIsLFSR reports whether a start variable belongs to the LFSR
// (the second register in the state layout).
func grainVarIsLFSR(inst *encoder.Instance, v cnf.Var) bool {
	for i := crypto.GrainNFSRLen; i < crypto.GrainStateBits; i++ {
		if inst.StartVars[i] == v {
			return true
		}
	}
	return false
}

// grainRegisters is the Grain state: NFSR then LFSR in start-variable order.
var grainRegisters = []register{
	{"NFSR (b0..b79)", 0, crypto.GrainNFSRLen},
	{"LFSR (s0..s79)", crypto.GrainNFSRLen, crypto.GrainLFSRLen},
}

// Figure4 renders the analogue of Figure 4: the Grain decomposition set laid
// out over NFSR and LFSR, plus the register split.
func (r *GrainResult) Figure4() *Table {
	return registerFigure("Figure 4 — Grain decomposition set found by PDSAT (tabu search)", r.Instance, r.Searched.Vars, grainRegisters,
		fmt.Sprintf("|set| = %d (NFSR %d, LFSR %d); F = %s %s; start-set F = %s",
			r.Searched.Power, r.NFSRCount, r.LFSRCount, fmtF(r.Searched.F), r.Scale.CostUnit(), fmtF(r.StartF)),
		"the paper's 69-variable set lies entirely in the LFSR",
		fmt.Sprintf("instance %s, scale %q, %d points visited by the search", r.Instance.Name, r.Scale.Name, r.TabuEvaluations),
	)
}
