package dataset

import (
	"testing"
	"testing/quick"

	"sommelier/internal/graph"
	"sommelier/internal/nn"
	"sommelier/internal/tensor"
)

func testModel(t testing.TB, seed uint64) *nn.Executor {
	t.Helper()
	b := graph.NewBuilder("m", graph.TaskClassification, tensor.Shape{4}, tensor.NewRNG(seed))
	b.Dense(8)
	b.ReLU()
	b.Dense(3)
	b.Softmax()
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e, err := nn.NewExecutor(m)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestGaussianMixtureShapeAndBalance(t *testing.T) {
	d := GaussianMixture("g", 90, 5, 3, 0.5, 1)
	if d.Len() != 90 {
		t.Fatalf("Len = %d", d.Len())
	}
	counts := make([]int, 3)
	for i, x := range d.Inputs {
		if !x.Shape().Equal(tensor.Shape{5}) {
			t.Fatalf("sample %d shape %v", i, x.Shape())
		}
		counts[d.Labels[i]]++
	}
	for c, n := range counts {
		if n != 30 {
			t.Fatalf("class %d has %d samples", c, n)
		}
	}
}

func TestGaussianMixtureDeterministic(t *testing.T) {
	a := GaussianMixture("a", 10, 3, 2, 0.5, 7)
	b := GaussianMixture("b", 10, 3, 2, 0.5, 7)
	for i := range a.Inputs {
		if tensor.L2Distance(a.Inputs[i], b.Inputs[i]) != 0 {
			t.Fatal("same seed should reproduce samples")
		}
	}
	c := GaussianMixture("c", 10, 3, 2, 0.5, 8)
	if tensor.L2Distance(a.Inputs[0], c.Inputs[0]) == 0 {
		t.Fatal("different seed should change samples")
	}
}

func TestSplitAndSlice(t *testing.T) {
	d := GaussianMixture("s", 100, 3, 2, 0.5, 2)
	train, val := d.Split(0.8)
	if train.Len() != 80 || val.Len() != 20 {
		t.Fatalf("split sizes %d/%d", train.Len(), val.Len())
	}
	if &train.Inputs[0] == &val.Inputs[0] {
		t.Fatal("split views overlap")
	}
	if train.NumClasses != d.NumClasses {
		t.Fatal("split lost NumClasses")
	}
}

func TestSplitClamps(t *testing.T) {
	d := GaussianMixture("c", 10, 3, 2, 0.5, 3)
	tr, v := d.Split(1.5)
	if tr.Len() != 10 || v.Len() != 0 {
		t.Fatalf("overflow split %d/%d", tr.Len(), v.Len())
	}
	tr, v = d.Split(-1)
	if tr.Len() != 0 || v.Len() != 10 {
		t.Fatalf("underflow split %d/%d", tr.Len(), v.Len())
	}
}

func TestTeacherLabeledPerfectSelfAccuracy(t *testing.T) {
	teacher := testModel(t, 1)
	d, err := TeacherLabeled("teach", teacher, 50, 9)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := Accuracy(teacher, d)
	if err != nil {
		t.Fatal(err)
	}
	if acc != 1 {
		t.Fatalf("teacher accuracy on own labels = %g", acc)
	}
	if d.NumClasses != 3 {
		t.Fatalf("NumClasses = %d", d.NumClasses)
	}
}

func TestAccuracyErrors(t *testing.T) {
	e := testModel(t, 7)
	if _, err := Accuracy(e, &Dataset{Name: "empty"}); err == nil {
		t.Fatal("expected error for unlabeled dataset")
	}
	if _, err := Accuracy(e, &Dataset{Name: "nolabel", Inputs: RandomImages(1, tensor.Shape{4}, 1)}); err == nil {
		t.Fatal("expected error for missing labels")
	}
}

func TestRandomImagesShape(t *testing.T) {
	imgs := RandomImages(5, tensor.Shape{3, 2, 2}, 4)
	if len(imgs) != 5 {
		t.Fatalf("len = %d", len(imgs))
	}
	for _, im := range imgs {
		if !im.Shape().Equal(tensor.Shape{3, 2, 2}) {
			t.Fatalf("shape %v", im.Shape())
		}
	}
}

// Property: accuracy is always within [0,1] for any labeled subset.
func TestPropertyAccuracyRange(t *testing.T) {
	e := testModel(t, 12)
	d, err := TeacherLabeled("p", e, 30, 13)
	if err != nil {
		t.Fatal(err)
	}
	f := func(loRaw, hiRaw uint8) bool {
		lo := int(loRaw) % d.Len()
		hi := lo + 1 + int(hiRaw)%(d.Len()-lo)
		acc, err := Accuracy(e, d.Slice(lo, hi))
		return err == nil && acc >= 0 && acc <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
