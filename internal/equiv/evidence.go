package equiv

import (
	"fmt"
	"math"

	"sommelier/internal/dataset"
	"sommelier/internal/graph"
	"sommelier/internal/nn"
	"sommelier/internal/tensor"
)

// Evidence is everything the §4.1 value check needs from one model on
// one validation set, gathered by running the model once: every input to
// the check depends on a single model, so a model compared against many
// partners is observed once and Compare runs no model. The record is
// the predicted class per sample (and how many match the labels, if the
// dataset has labels), or the raw outputs for label-free regression.
type Evidence struct {
	n        int
	labelled bool
	correct  int
	classes  []int32
	outputs  []*tensor.Tensor
	bound    float64 // boundFactor, when observed with the bound on
	hasBound bool
}

// Observe runs m over the validation set once and returns its evidence,
// including the bound factor unless opts turns the bound off. The model
// is validated and ordered once; the sweep and the bound share both.
func Observe(m *graph.Model, val *dataset.Dataset, opts Options) (*Evidence, error) {
	ev, err := observe(m, val, opts)
	if err != nil {
		return nil, fmt.Errorf("equiv: observing %q: %w", m.Name, err)
	}
	return ev, nil
}

func observe(m *graph.Model, val *dataset.Dataset, opts Options) (*Evidence, error) {
	if val.Len() == 0 {
		return nil, fmt.Errorf("dataset %q is empty", val.Name)
	}
	exec, err := nn.NewExecutor(m)
	if err != nil {
		return nil, err
	}
	ev, err := sweep(exec, val)
	if err == nil && opts.Bound == BoundOn {
		ev.bound, err = boundFactor(exec)
		ev.hasBound = true
	}
	return ev, err
}

// sweep is the one inference pass of an observation: the whole
// validation set through the batched executor.
func sweep(exec *nn.Executor, val *dataset.Dataset) (*Evidence, error) {
	ev := &Evidence{n: val.Len(), labelled: val.Labels != nil}
	if !ev.labelled && exec.Model().Task != graph.TaskClassification {
		var err error
		ev.outputs, err = exec.ForwardBatch(val.Inputs)
		return ev, err
	}
	classes, err := exec.PredictBatch(val.Inputs)
	if err != nil {
		return nil, err
	}
	ev.classes = make([]int32, ev.n)
	for i, cls := range classes {
		ev.classes[i] = int32(cls)
		if ev.labelled && cls == val.Labels[i] {
			ev.correct++
		}
	}
	return ev, nil
}

// Compare assesses cand standing in for ref, an IOCompatible pair, from
// evidence observed on one validation set. The empirical QoR difference
// is, with ground-truth labels, the accuracy gap; without labels,
// classification pairs use the prediction disagreement ratio — the
// "probability of producing the same results" the paper's semantic
// correlation is defined by — and regression pairs fall back to mean
// output distance.
func Compare(ref, cand *Evidence, opts Options) (WholeResult, error) {
	if ref.n != cand.n || ref.labelled != cand.labelled || (ref.classes == nil) != (cand.classes == nil) {
		return WholeResult{}, fmt.Errorf("equiv: evidence observed on different validation sets or task kinds")
	}
	n := float64(ref.n)
	var emp float64
	switch {
	case ref.labelled:
		emp = math.Abs(float64(ref.correct)/n - float64(cand.correct)/n)
	case ref.classes != nil:
		agree := 0
		for i, cls := range ref.classes {
			if cls == cand.classes[i] {
				agree++
			}
		}
		emp = 1 - float64(agree)/n
	default:
		total := 0.0
		for i, out := range ref.outputs {
			total += tensor.L2Distance(out, cand.outputs[i])
		}
		emp = total / n
	}
	res := WholeResult{Compatible: true, EmpiricalDiff: emp}
	if opts.Bound == BoundOn {
		if !cand.hasBound {
			return WholeResult{}, fmt.Errorf("equiv: candidate evidence was observed without the bound factor")
		}
		res.GeneralizationBound = boundFrom(cand.bound, cand.n, opts.gamma())
	}
	res.BoundedDiff = res.EmpiricalDiff + res.GeneralizationBound
	if res.BoundedDiff > 1 {
		res.BoundedDiff = 1
	}
	res.Equivalent = res.BoundedDiff <= opts.Epsilon
	return res, nil
}
