// Package dataset supplies the labeled validation data every equivalence
// measurement in the reproduction runs on. Real Sommelier uses ImageNet,
// SQuAD, and friends; here datasets are synthetic but seeded and
// structured (Gaussian class clusters, teacher-generated labels) so the
// experiments control exactly how much two models disagree.
package dataset

import (
	"fmt"

	"sommelier/internal/nn"
	"sommelier/internal/tensor"
)

// Dataset is an ordered collection of samples with ground-truth labels.
// Classification datasets use Labels; regression datasets use Targets.
type Dataset struct {
	Name       string
	Inputs     []*tensor.Tensor
	Labels     []int
	Targets    []*tensor.Tensor
	NumClasses int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Inputs) }

// Slice returns a view of samples [lo, hi).
func (d *Dataset) Slice(lo, hi int) *Dataset {
	s := &Dataset{Name: d.Name, NumClasses: d.NumClasses}
	s.Inputs = d.Inputs[lo:hi]
	if d.Labels != nil {
		s.Labels = d.Labels[lo:hi]
	}
	if d.Targets != nil {
		s.Targets = d.Targets[lo:hi]
	}
	return s
}

// Split partitions the dataset into a training set of trainFrac of the
// samples and a validation set of the remainder.
func (d *Dataset) Split(trainFrac float64) (train, val *Dataset) {
	n := int(float64(d.Len()) * trainFrac)
	if n < 0 {
		n = 0
	}
	if n > d.Len() {
		n = d.Len()
	}
	return d.Slice(0, n), d.Slice(n, d.Len())
}

// GaussianMixture synthesizes a classification dataset of n samples over
// dim features and k classes. Each class is an isotropic Gaussian around a
// random center; spread controls the cluster overlap (larger = harder).
func GaussianMixture(name string, n, dim, k int, spread float64, seed uint64) *Dataset {
	if n <= 0 || dim <= 0 || k <= 0 {
		panic(fmt.Sprintf("dataset: invalid GaussianMixture(%d,%d,%d)", n, dim, k))
	}
	rng := tensor.NewRNG(seed)
	centers := make([]*tensor.Tensor, k)
	for c := range centers {
		centers[c] = tensor.New(dim)
		rng.FillUniform(centers[c], -2, 2)
	}
	d := &Dataset{Name: name, NumClasses: k}
	d.Inputs = make([]*tensor.Tensor, n)
	d.Labels = make([]int, n)
	for i := 0; i < n; i++ {
		c := i % k // balanced classes
		x := tensor.New(dim)
		rng.FillNormal(x, 0, spread)
		x.AddInPlace(centers[c])
		d.Inputs[i] = x
		d.Labels[i] = c
	}
	return d
}

// RandomImages synthesizes n rank-3 image-like tensors of the given shape
// with standard-normal pixels — unlabeled probe inputs for agreement and
// segment experiments.
func RandomImages(n int, shape tensor.Shape, seed uint64) []*tensor.Tensor {
	rng := tensor.NewRNG(seed)
	out := make([]*tensor.Tensor, n)
	for i := range out {
		t := tensor.New(shape...)
		rng.FillNormal(t, 0, 1)
		out[i] = t
	}
	return out
}

// TeacherLabeled builds a classification dataset whose ground truth is a
// teacher model's own predictions over random inputs. Models derived from
// the same teacher then have exactly controllable agreement with it.
func TeacherLabeled(name string, teacher *nn.Executor, n int, seed uint64) (*Dataset, error) {
	inputs := RandomImages(n, teacher.Model().InputShape, seed)
	out, err := teacher.Model().OutputShape()
	if err != nil {
		return nil, err
	}
	d := &Dataset{Name: name, NumClasses: out.NumElements()}
	d.Inputs = inputs
	if d.Labels, err = teacher.PredictBatch(inputs); err != nil {
		return nil, fmt.Errorf("dataset: labeling %q: %w", name, err)
	}
	return d, nil
}

// Accuracy returns the top-1 accuracy of the executor on a classification
// dataset.
func Accuracy(e *nn.Executor, d *Dataset) (float64, error) {
	if d.Labels == nil {
		return 0, fmt.Errorf("dataset: %q has no labels", d.Name)
	}
	if d.Len() == 0 {
		return 0, fmt.Errorf("dataset: %q is empty", d.Name)
	}
	classes, err := e.PredictBatch(d.Inputs)
	if err != nil {
		return 0, err
	}
	correct := 0
	for i, cls := range classes {
		if cls == d.Labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(d.Len()), nil
}

// QoRDifference measures the empirical quality-of-result difference
// between two models on the dataset (§4.1). For classification datasets it
// is the absolute accuracy gap; otherwise it is the mean L2 distance
// between raw outputs on the same inputs.
func QoRDifference(a, b *nn.Executor, d *Dataset) (float64, error) {
	if d.Len() == 0 {
		return 0, fmt.Errorf("dataset: %q is empty", d.Name)
	}
	if d.Labels != nil {
		accA, err := Accuracy(a, d)
		if err != nil {
			return 0, err
		}
		accB, err := Accuracy(b, d)
		if err != nil {
			return 0, err
		}
		if accA >= accB {
			return accA - accB, nil
		}
		return accB - accA, nil
	}
	total := 0.0
	for _, x := range d.Inputs {
		oa, err := a.Forward(x)
		if err != nil {
			return 0, err
		}
		ob, err := b.Forward(x)
		if err != nil {
			return 0, err
		}
		total += tensor.L2Distance(oa, ob)
	}
	return total / float64(d.Len()), nil
}

// DisagreementRatio returns the fraction of samples on which two models
// predict different classes — the quantity "models differ by x%" that the
// synthetic-repository experiments sweep.
func DisagreementRatio(a, b *nn.Executor, d *Dataset) (float64, error) {
	r, err := nn.AgreementRatio(a, b, d.Inputs)
	if err != nil {
		return 0, err
	}
	return 1 - r, nil
}
