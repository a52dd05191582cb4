package experiments

import (
	"context"
	"fmt"
	"time"

	"sommelier"
	"sommelier/internal/equiv"
	"sommelier/internal/graph"
	"sommelier/internal/index"
	"sommelier/internal/repo"
	"sommelier/internal/resource"
	"sommelier/internal/tensor"
	"sommelier/internal/zoo"
)

// ---------------------------------------------------------------------
// Ablation 1: generalization bound on vs off (extensional vs
// intensional scoring) — how much the bound costs in score and buys in
// stability across validation draws.
// ---------------------------------------------------------------------

// AblationBoundResult compares bound-on and bound-off scores for the
// same pair across validation dataset draws.
type AblationBoundResult struct {
	// Spread is max-min of the testing-only score across draws.
	TestingSpread float64
	// FloorViolations counts draws where the bounded floor exceeded the
	// testing score (must be zero for a sound bound).
	FloorViolations int
	Draws           int
	MeanTesting     float64
	Floor           float64
}

// RunAblationBound measures score stability with and without the bound.
func RunAblationBound(seed uint64) (*AblationBoundResult, error) {
	base, err := zoo.DenseResidualNet(zoo.Config{Name: "ab-bound", Seed: seed, Width: 32})
	if err != nil {
		return nil, err
	}
	variant := zoo.Perturb(base, "ab-variant", 0.1, seed+1)
	res := &AblationBoundResult{Draws: 20}
	var minS, maxS, sum float64 = 1, 0, 0
	var worstEmp float64
	scores := make([]float64, 0, res.Draws)
	for d := 0; d < res.Draws; d++ {
		val := probeDataset(base.InputShape, 250, seed+10+uint64(d))
		r, err := equiv.CheckWhole(base, variant, val, equiv.Options{Epsilon: 1, Bound: equiv.BoundOff})
		if err != nil {
			return nil, err
		}
		s := r.Score()
		scores = append(scores, s)
		if s < minS {
			minS = s
		}
		if s > maxS {
			maxS = s
		}
		sum += s
		if r.EmpiricalDiff > worstEmp {
			worstEmp = r.EmpiricalDiff
		}
	}
	gb, err := equiv.GeneralizationBound(variant, 250, 1)
	if err != nil {
		return nil, err
	}
	res.Floor = 1 - (worstEmp + gb)
	if res.Floor < 0 {
		res.Floor = 0
	}
	for _, s := range scores {
		if res.Floor > s {
			res.FloorViolations++
		}
	}
	res.TestingSpread = maxS - minS
	res.MeanTesting = sum / float64(res.Draws)
	return res, nil
}

// Report renders the ablation.
func (r *AblationBoundResult) Report() Report {
	rep := Report{ID: "ablation-bound", Title: "Ablation: generalization bound on vs off"}
	rep.Lines = append(rep.Lines, line("testing-only score: mean %.3f, spread %.3f across %d draws",
		r.MeanTesting, r.TestingSpread, r.Draws))
	rep.Lines = append(rep.Lines, line("bounded floor: %.3f, violations: %d (must be 0)", r.Floor, r.FloorViolations))
	return rep
}

// ---------------------------------------------------------------------
// Ablation 2: 5-sample insertion vs full pairwise indexing.
// ---------------------------------------------------------------------

// AblationSamplingResult compares indexing cost and ranking quality at
// different sample sizes.
type AblationSamplingResult struct {
	SampleSizes []int
	IndexMS     []float64
	// Top1Hit is whether the closest variant is still ranked first.
	Top1Hit []bool
}

// RunAblationSampling builds the same 16-model repository under several
// insertion sample sizes and compares indexing time and top-1 quality.
// Segment analysis is on, so a sampled pair still runs models (whole-model
// levels compare cached observations), and one worker makes time = work.
func RunAblationSampling(ctx context.Context, seed uint64) (*AblationSamplingResult, error) {
	base, err := zoo.DenseResidualNet(zoo.Config{Name: "ab-sample", Seed: seed, Width: 32})
	if err != nil {
		return nil, err
	}
	probes := probeDataset(base.InputShape, 300, seed+1).Inputs
	type variant struct {
		m    *zooModel
		diff float64
	}
	var variants []variant
	for i := 0; i < 15; i++ {
		target := 0.02 + 0.012*float64(i)
		v, dis, err := zoo.CalibratedVariant(base, fmt.Sprintf("ab-v%02d", i), target, probes, seed+10+uint64(i))
		if err != nil {
			return nil, err
		}
		variants = append(variants, variant{m: v, diff: dis})
	}
	ideal := "ab-v00@1"

	res := &AblationSamplingResult{SampleSizes: []int{2, 5, 16}}
	for _, k := range res.SampleSizes {
		store := repo.NewInMemory()
		eng, err := sommelier.NewEngine(store,
			sommelier.WithSeed(seed),
			sommelier.WithValidationSize(400),
			sommelier.WithSampleSize(k),
			sommelier.WithBound(equiv.BoundOff),
			sommelier.WithSegments(true),
			sommelier.WithIndexWorkers(1),
		)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		refID, err := eng.RegisterContext(ctx, base)
		if err != nil {
			return nil, err
		}
		for _, v := range variants {
			if _, err := eng.RegisterContext(ctx, v.m); err != nil {
				return nil, err
			}
		}
		res.IndexMS = append(res.IndexMS, ms(start))
		top, err := eng.TopEquivalents(refID, 1)
		if err != nil {
			return nil, err
		}
		res.Top1Hit = append(res.Top1Hit, len(top) > 0 && top[0].ID == ideal)
	}
	return res, nil
}

type zooModel = graph.Model

// Report renders the ablation.
func (r *AblationSamplingResult) Report() Report {
	rep := Report{ID: "ablation-sampling", Title: "Ablation: sampled insertion (k pairwise measurements per insert)"}
	rep.Lines = append(rep.Lines, "sample size   index time(ms)   top-1 still ideal")
	for i, k := range r.SampleSizes {
		rep.Lines = append(rep.Lines, line("%11d   %14.1f   %17v", k, r.IndexMS[i], r.Top1Hit[i]))
	}
	rep.Lines = append(rep.Lines, "(paper: sampling dramatically improves scalability without degrading quality much)")
	return rep
}

// ---------------------------------------------------------------------
// Ablation 3: LSH vs linear scan for resource lookup.
// ---------------------------------------------------------------------

// AblationLSHResult compares lookup latencies and recall.
type AblationLSHResult struct {
	Sizes    []int
	LSHMS    []float64
	LinearMS []float64
	Recall   []float64
}

// RunAblationLSH times budget lookups via the LSH path against exact
// scans at increasing index sizes.
func RunAblationLSH(seed uint64) (*AblationLSHResult, error) {
	res := &AblationLSHResult{Sizes: []int{1000, 10000, 100000}}
	for _, n := range res.Sizes {
		rng := tensor.NewRNG(seed + uint64(n))
		ri := index.NewResourceIndex(seed)
		for i := 0; i < n; i++ {
			p := resource.Profile{
				FLOPs:       int64(1e6 + rng.Float64()*1e10),
				MemoryBytes: int64(1e5 + rng.Float64()*1e9),
				LatencyMS:   0.1 + rng.Float64()*100,
			}
			if err := ri.Insert(fmt.Sprintf("m%d", i), p); err != nil {
				return nil, err
			}
		}
		budget := index.Budget{MaxMemoryBytes: int64(3e8), MaxFLOPs: int64(3e9), MaxLatencyMS: 30}
		const reps = 10
		var lshMS, linMS float64
		var lshN, linN int
		for q := 0; q < reps; q++ {
			start := time.Now()
			ids, err := ri.Candidates(budget, 0)
			if err != nil {
				return nil, err
			}
			lshMS += ms(start)
			lshN = len(ids)

			start = time.Now()
			exact := ri.CandidatesExact(budget)
			linMS += ms(start)
			linN = len(exact)
		}
		res.LSHMS = append(res.LSHMS, lshMS/reps)
		res.LinearMS = append(res.LinearMS, linMS/reps)
		recall := 1.0
		if linN > 0 {
			recall = float64(lshN) / float64(linN)
		}
		res.Recall = append(res.Recall, recall)
	}
	return res, nil
}

// Report renders the ablation.
func (r *AblationLSHResult) Report() Report {
	rep := Report{ID: "ablation-lsh", Title: "Ablation: LSH vs linear scan for resource lookup"}
	rep.Lines = append(rep.Lines, "records       LSH(ms)   linear(ms)   recall")
	for i, n := range r.Sizes {
		rep.Lines = append(rep.Lines, line("%7d   %11.3f   %10.3f   %6.2f", n, r.LSHMS[i], r.LinearMS[i], r.Recall[i]))
	}
	return rep
}

// ---------------------------------------------------------------------
// Ablation 4: segment-level matching vs whole-model-only.
// ---------------------------------------------------------------------

// AblationSegmentResult compares what each mode finds for a transfer
// pair whose whole models diverge but whose trunks match.
type AblationSegmentResult struct {
	WholeLevel   float64
	SegmentLevel float64
}

// RunAblationSegment builds a base and a heavily re-headed transfer
// variant: whole-model equivalence is poor, yet segment analysis
// recovers a high-level synthesized candidate.
func RunAblationSegment(seed uint64) (*AblationSegmentResult, error) {
	base, err := zoo.DenseResidualNet(zoo.Config{Name: "ab-seg", Seed: seed, Width: 24, Depth: 1})
	if err != nil {
		return nil, err
	}
	variant, err := zoo.Transfer(base, "ab-seg-variant", 8, 99, 0, seed+1)
	if err != nil {
		return nil, err
	}
	val := probeDataset(base.InputShape, 300, seed+2)
	whole, err := equiv.CheckWhole(base, variant, val, equiv.Options{Epsilon: 1, Bound: equiv.BoundOff})
	if err != nil {
		return nil, err
	}
	pairs, err := equiv.CommonSegments(base, variant, 3)
	if err != nil {
		return nil, err
	}
	assess, err := equiv.AssessReplacement(base, pairs, equiv.Options{Epsilon: 0.1, Seed: seed, ProbeCount: 16})
	if err != nil {
		return nil, err
	}
	return &AblationSegmentResult{WholeLevel: whole.Score(), SegmentLevel: assess.Level()}, nil
}

// Report renders the ablation.
func (r *AblationSegmentResult) Report() Report {
	rep := Report{ID: "ablation-segment", Title: "Ablation: segment-level vs whole-model-only matching"}
	rep.Lines = append(rep.Lines, line("whole-model equivalence level:   %.3f", r.WholeLevel))
	rep.Lines = append(rep.Lines, line("segment replacement level:       %.3f", r.SegmentLevel))
	rep.Lines = append(rep.Lines, "(segment analysis recovers reuse that whole-model comparison misses)")
	return rep
}
