package equiv

import (
	"fmt"

	"sommelier/internal/dataset"
	"sommelier/internal/graph"
)

// This file holds the pure pairwise entry points the indexing pipeline
// is built on. Every input is explicit — models, probe datasets, and
// seeded options — so calls are deterministic and safe to fan out
// across worker goroutines: no engine state, no shared RNG, no caches —
// a caller comparing one model against many partners keeps the model's
// Evidence itself (internal/catalog does).

// CheckPair measures whole-model equivalence in both directions of a
// model pair (§4.3: the relation is asymmetric). fwd assesses cand
// standing in for ref, probed with ref's validation data; rev assesses
// ref standing in for cand, probed with cand's validation data. Each
// model is observed once per distinct dataset.
func CheckPair(ref, cand *graph.Model, refVal, candVal *dataset.Dataset, opts Options) (fwd, rev WholeResult, err error) {
	if ok, _ := IOCompatible(ref, cand); !ok || refVal != candVal {
		// Nothing to share: no sweeps at all, or two per direction.
		if fwd, err = CheckWhole(ref, cand, refVal, opts); err == nil {
			rev, err = CheckWhole(cand, ref, candVal, opts)
		}
		return fwd, rev, err
	}
	refEv, err := Observe(ref, refVal, opts)
	if err != nil {
		return WholeResult{}, WholeResult{}, err
	}
	candEv, err := Observe(cand, refVal, opts)
	if err != nil {
		return WholeResult{}, WholeResult{}, err
	}
	if fwd, err = Compare(refEv, candEv, opts); err == nil {
		rev, err = Compare(candEv, refEv, opts)
	}
	return fwd, rev, err
}

// SwapCandidate summarizes a viable segment transplant: the bounded
// equivalence level of the synthesized model and a label for the
// replaced run.
type SwapCandidate struct {
	Level   float64
	Segment string
}

// AssessSwapBoth finds the common segments of a and b (§4.2) and
// assesses the transplant in both directions: b's segment into a
// (intoA) and a's segment into b (intoB). A nil result means no viable
// transplant in that direction. Failures degrade to nil rather than
// erroring — segment synthesis is a recall enhancement, never a reason
// to fail an insertion.
func AssessSwapBoth(a, b *graph.Model, minLen int, opts Options) (intoA, intoB *SwapCandidate) {
	if minLen <= 0 {
		minLen = 3
	}
	pairs, err := CommonSegments(a, b, minLen)
	if err != nil || len(pairs) == 0 {
		return nil, nil
	}
	if r, err := AssessReplacement(a, pairs, opts); err == nil && len(r.Kept) > 0 {
		intoA = &SwapCandidate{Level: r.Level(), Segment: SegmentLabel(r.Kept)}
	}
	// Reverse direction: segments of a transplanted into b.
	rev := make([]SegmentPair, len(pairs))
	for i, p := range pairs {
		rev[i] = SegmentPair{A: p.B, B: p.A}
	}
	if r, err := AssessReplacement(b, rev, opts); err == nil && len(r.Kept) > 0 {
		intoB = &SwapCandidate{Level: r.Level(), Segment: SegmentLabel(r.Kept)}
	}
	return intoA, intoB
}

// SegmentLabel renders a human-readable label for a kept segment set:
// the first run's endpoints plus a count of any further runs.
func SegmentLabel(pairs []SegmentPair) string {
	if len(pairs) == 0 {
		return ""
	}
	s := pairs[0].A
	label := fmt.Sprintf("%s..%s", s.First(), s.Last())
	if len(pairs) > 1 {
		label += fmt.Sprintf("+%d", len(pairs)-1)
	}
	return label
}
