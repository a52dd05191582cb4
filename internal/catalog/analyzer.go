package catalog

import (
	"sommelier/internal/dataset"
	"sommelier/internal/equiv"
	"sommelier/internal/graph"
	"sommelier/internal/index"
)

// probeCache builds and caches one probe dataset per input-shape
// signature and names each set (key), so evidence and datasets are
// keyed alike. It is safe for concurrent use: the first caller for a
// key generates the data and every other caller waits for and shares it.
type probeCache struct {
	custom *dataset.Dataset
	size   int
	seed   uint64
	sets   memo[string, *dataset.Dataset]
}

// key names the probe set For(m) returns.
func (p *probeCache) key(m *graph.Model) string {
	if cv := p.custom; cv != nil && cv.Len() > 0 && cv.Inputs[0].Shape().Equal(m.InputShape) {
		return "custom"
	}
	return m.InputShape.String()
}

func (p *probeCache) For(m *graph.Model) *dataset.Dataset {
	key := p.key(m)
	if key == "custom" {
		return p.custom
	}
	d, _ := p.sets.get(key, func() (*dataset.Dataset, error) {
		return &dataset.Dataset{
			Name:   "probe" + key,
			Inputs: dataset.RandomImages(p.size, m.InputShape, p.seed),
		}, nil
	})
	return d
}

// pairAnalyzer is the real analysis behind the pipeline, built on
// internal/equiv: models are observed on its probe sets with its
// options, and analyze turns a planned pair's evidence into whole-model
// levels in both directions plus — when enabled — segment-level
// replacements. All its state is read-only after construction except
// the probe cache, so it is safe to use from many workers at once.
type pairAnalyzer struct {
	opts    equiv.Options
	segs    bool
	segLen  int
	segOpts equiv.Options
	probes  *probeCache
}

func newPairAnalyzer(cfg Config) *pairAnalyzer {
	return &pairAnalyzer{
		// Epsilon 1: levels are recorded; thresholds apply at query time.
		opts:    equiv.Options{Epsilon: 1, Bound: cfg.Bound, Seed: cfg.Seed},
		segs:    cfg.Segments,
		segLen:  cfg.SegmentMinLen,
		segOpts: equiv.Options{Epsilon: 0.1, Seed: cfg.Seed, ProbeCount: 12},
		probes: &probeCache{
			custom: cfg.CustomValidation,
			size:   cfg.validationSize(),
			seed:   cfg.Seed + 3,
		},
	}
}

// analyze is CheckPair over evidence: fwd assesses cand standing in for
// ref on ref's probe set, rev the reverse on cand's. An IO-incompatible
// pair has no evidence and levels of zero.
func (a *pairAnalyzer) analyze(p *plannedPair) (index.AnalysisResult, error) {
	ref, cand := p.ref, p.cand
	var res index.AnalysisResult
	if p.compatible {
		for _, o := range []*observation{p.refOnRef, p.candOnRef, p.candOnCand, p.refOnCand} {
			if o.err != nil {
				return res, o.err
			}
		}
		fwd, err := equiv.Compare(p.refOnRef.ev, p.candOnRef.ev, a.opts)
		if err != nil {
			return res, err
		}
		rev, err := equiv.Compare(p.candOnCand.ev, p.refOnCand.ev, a.opts)
		if err != nil {
			return res, err
		}
		res.LevelForRef, res.LevelForCand = fwd.Score(), rev.Score()
	}
	if a.segs {
		intoRef, intoCand := equiv.AssessSwapBoth(ref.Model, cand.Model, a.segLen, a.segOpts)
		if intoRef != nil {
			res.SynthForRef = []index.Candidate{{
				ID: ref.ID, Level: intoRef.Level, Kind: index.KindSynthesized,
				DonorID: cand.ID, Segment: intoRef.Segment,
			}}
		}
		if intoCand != nil {
			res.SynthForCand = []index.Candidate{{
				ID: cand.ID, Level: intoCand.Level, Kind: index.KindSynthesized,
				DonorID: ref.ID, Segment: intoCand.Segment,
			}}
		}
	}
	return res, nil
}
