// Package equiv implements the paper's core algorithmic contribution
// (§4): assessing generalized functional equivalence between DNN models,
// both holistically and between structurally identical model segments.
//
// Whole-model equivalence proceeds in three phases mirroring §4.1: an
// input/output structure check (type check), an empirical
// quality-of-result difference on a validation dataset (value check), and
// a generalization-bound refinement that turns the dataset-dependent
// measurement into a dataset-independent upper bound.
//
// Segment equivalence (§4.2) extracts the longest common operator
// sequences between two model DAGs, propagates worst-case output
// differences through them layer by layer, and assesses replacement
// impact by perturbing segment outputs with bound-scaled Gaussian noise.
package equiv

import (
	"fmt"

	"sommelier/internal/dataset"
	"sommelier/internal/graph"
)

// BoundMode selects how the generalization-bound analysis runs (§5.5's
// configuration knob).
type BoundMode int

const (
	// BoundOn adds the generalization error bound to the empirical QoR
	// difference (the default, extensional mode).
	BoundOn BoundMode = iota
	// BoundOff uses the raw empirical difference only (intensional,
	// ModelDiff-style testing mode).
	BoundOff
)

// Options configures equivalence assessment.
type Options struct {
	// Epsilon is the acceptable QoR difference threshold.
	Epsilon float64
	// Bound selects whether the generalization bound refines the
	// empirical measurement.
	Bound BoundMode
	// Gamma is the margin parameter of the bound, determined by the
	// accuracy metric of the task; 0 means the default of 1.
	Gamma float64
	// ProbeCount is the number of random probe inputs used by the
	// segment-replacement assessment; 0 means a default of 16.
	ProbeCount int
	// Seed drives the probe generation and noise injection.
	Seed uint64
}

func (o Options) gamma() float64 {
	if o.Gamma <= 0 {
		return 1
	}
	return o.Gamma
}

func (o Options) probes() int {
	if o.ProbeCount <= 0 {
		return 16
	}
	return o.ProbeCount
}

// WholeResult reports the outcome of a whole-model equivalence check of a
// candidate model against a reference model.
type WholeResult struct {
	// Compatible is false when the input/output structure check already
	// rules the pair out; Reason explains why.
	Compatible bool
	Reason     string
	// EmpiricalDiff is the measured QoR difference on the validation
	// dataset.
	EmpiricalDiff float64
	// GeneralizationBound is the additive dataset-independence term
	// (zero when the bound is off).
	GeneralizationBound float64
	// BoundedDiff = EmpiricalDiff + GeneralizationBound, capped at 1.
	BoundedDiff float64
	// Equivalent reports BoundedDiff <= Epsilon.
	Equivalent bool
}

// Score converts the result into the functional-equivalence score stored
// in the semantic index: 1 - BoundedDiff, floored at 0. Incompatible pairs
// score 0.
func (r WholeResult) Score() float64 {
	if !r.Compatible {
		return 0
	}
	s := 1 - r.BoundedDiff
	if s < 0 {
		return 0
	}
	return s
}

// CheckWhole assesses whether candidate is functionally equivalent to
// reference, treating both as black boxes (§4.1). The validation dataset
// must exercise the reference's task. The relation is asymmetric: the
// bound is computed from the candidate's architecture, since the
// candidate is what would be deployed in the reference's place.
func CheckWhole(reference, candidate *graph.Model, val *dataset.Dataset, opts Options) (WholeResult, error) {
	if ok, reason := IOCompatible(reference, candidate); !ok {
		return WholeResult{Compatible: false, Reason: reason}, nil
	}
	// This direction reads only the candidate's bound.
	ref, err := Observe(reference, val, Options{Bound: BoundOff})
	if err != nil {
		return WholeResult{}, err
	}
	cand, err := Observe(candidate, val, opts)
	if err != nil {
		return WholeResult{}, err
	}
	return Compare(ref, cand, opts)
}

// IOCompatible performs the input/output layer check of §4.1. It returns
// false with a human-readable reason when the models cannot capture the
// same task semantics.
func IOCompatible(a, b *graph.Model) (bool, string) {
	// Input check: strict shape comparison unless preprocessing is
	// declared (then the preprocessor identity is authoritative).
	switch {
	case a.Preprocessor != "" && b.Preprocessor != "":
		if a.Preprocessor != b.Preprocessor {
			return false, fmt.Sprintf("different preprocessors %q vs %q", a.Preprocessor, b.Preprocessor)
		}
	case a.Preprocessor == "" && b.Preprocessor == "":
		if !a.InputShape.Equal(b.InputShape) {
			return false, fmt.Sprintf("input shapes %v vs %v", a.InputShape, b.InputShape)
		}
	default:
		// Exactly one declares preprocessing; the raw source may
		// still be shared, so do not reject on shape.
	}

	outA, errA := a.OutputShape()
	outB, errB := b.OutputShape()
	if errA != nil || errB != nil {
		return false, "output shape unavailable"
	}
	if a.Task != b.Task {
		return false, fmt.Sprintf("task kinds %s vs %s", a.Task, b.Task)
	}
	if a.Task == graph.TaskClassification && len(a.OutputLabels) > 0 && len(b.OutputLabels) > 0 {
		// Finer-grained syntax check (§4.1): per-dimension labels.
		if len(a.OutputLabels) != len(b.OutputLabels) {
			return false, fmt.Sprintf("output syntax sizes %d vs %d", len(a.OutputLabels), len(b.OutputLabels))
		}
		for i := range a.OutputLabels {
			if a.OutputLabels[i] != b.OutputLabels[i] {
				return false, fmt.Sprintf("output syntax differs at dim %d: %q vs %q",
					i, a.OutputLabels[i], b.OutputLabels[i])
			}
		}
		return true, ""
	}
	if !outA.Equal(outB) {
		return false, fmt.Sprintf("output shapes %v vs %v", outA, outB)
	}
	return true, ""
}
