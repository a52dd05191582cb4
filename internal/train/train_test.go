package train

import (
	"bytes"
	"testing"

	"sommelier/internal/dataset"
	"sommelier/internal/graph"
	"sommelier/internal/tensor"
)

func classifier(t testing.TB, seed uint64, in, hidden, classes int) *graph.Model {
	t.Helper()
	b := graph.NewBuilder("clf", graph.TaskClassification, tensor.Shape{in}, tensor.NewRNG(seed))
	b.Dense(hidden)
	b.ReLU()
	b.Dense(classes)
	b.Softmax()
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func toExamples(d *dataset.Dataset) []Example {
	ex := make([]Example, d.Len())
	for i := range ex {
		ex[i] = Example{Input: d.Inputs[i], Class: d.Labels[i]}
	}
	return ex
}

func TestSGDLearnsSeparableClasses(t *testing.T) {
	d := dataset.GaussianMixture("train", 300, 6, 3, 0.3, 42)
	m := classifier(t, 1, 6, 16, 3)
	ex := toExamples(d)
	before, err := Evaluate(m, ex)
	if err != nil {
		t.Fatal(err)
	}
	loss, err := SGD(m, ex, Config{Epochs: 30, LearningRate: 0.05, Loss: CrossEntropy, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	after, err := Evaluate(m, ex)
	if err != nil {
		t.Fatal(err)
	}
	if after < 0.9 {
		t.Fatalf("accuracy after training = %.2f (before %.2f, loss %.3f)", after, before, loss)
	}
	if after <= before {
		t.Fatalf("training did not improve accuracy: %.2f -> %.2f", before, after)
	}
}

func TestSGDLossDecreases(t *testing.T) {
	d := dataset.GaussianMixture("loss", 120, 4, 2, 0.4, 11)
	m := classifier(t, 2, 4, 8, 2)
	ex := toExamples(d)
	l1, err := SGD(m, ex, Config{Epochs: 1, LearningRate: 0.05, Loss: CrossEntropy, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	l2, err := SGD(m, ex, Config{Epochs: 20, LearningRate: 0.05, Loss: CrossEntropy, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if l2 >= l1 {
		t.Fatalf("loss did not decrease: %.4f -> %.4f", l1, l2)
	}
}

func TestFrozenLayersDoNotMove(t *testing.T) {
	d := dataset.GaussianMixture("frozen", 60, 4, 2, 0.4, 13)
	m := classifier(t, 3, 4, 8, 2)
	var first *graph.Layer
	for _, l := range m.Layers {
		if l.Op == graph.OpDense {
			first = l
			break
		}
	}
	snapshot := first.Params["W"].Clone()
	_, err := SGD(m, toExamples(d), Config{
		Epochs: 5, LearningRate: 0.05, Loss: CrossEntropy, Seed: 5,
		Frozen: map[string]bool{first.Name: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tensor.L2Distance(snapshot, first.Params["W"]) != 0 {
		t.Fatal("frozen layer weights moved")
	}
	// The head must still have moved.
	moved := false
	for _, l := range m.Layers {
		if l.Op == graph.OpDense && l.Name != first.Name {
			moved = true
		}
	}
	if !moved {
		t.Fatal("test setup broken: no unfrozen dense layer")
	}
}

func TestMSERegression(t *testing.T) {
	// Learn the identity map on 2 dims.
	b := graph.NewBuilder("reg", graph.TaskRegression, tensor.Shape{2}, tensor.NewRNG(4))
	b.Dense(2)
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(9)
	var ex []Example
	for i := 0; i < 200; i++ {
		x := tensor.New(2)
		rng.FillNormal(x, 0, 1)
		ex = append(ex, Example{Input: x, Target: x.Clone()})
	}
	loss, err := SGD(m, ex, Config{Epochs: 50, LearningRate: 0.05, Loss: MSE, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if loss > 0.01 {
		t.Fatalf("MSE after training = %.4f", loss)
	}
}

func TestSGDRejectsNonSequential(t *testing.T) {
	b := graph.NewBuilder("res", graph.TaskClassification, tensor.Shape{4}, tensor.NewRNG(5))
	b.Dense(4)
	b.Residual(func(b *graph.Builder) { b.Dense(4) })
	b.Dense(2)
	b.Softmax()
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, err = SGD(m, []Example{{Input: tensor.New(4), Class: 0}}, Config{Loss: CrossEntropy})
	if err == nil {
		t.Fatal("expected error for non-sequential model")
	}
}

func TestSGDRejectsUnsupportedOp(t *testing.T) {
	b := graph.NewBuilder("ln", graph.TaskClassification, tensor.Shape{4}, tensor.NewRNG(6))
	b.Dense(4)
	b.LayerNorm() // no backward rule
	b.Dense(2)
	b.Softmax()
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SGD(m, []Example{{Input: tensor.New(4), Class: 0}}, Config{Loss: CrossEntropy}); err == nil {
		t.Fatal("expected error for LayerNorm in trainable chain")
	}
}

func TestSGDEmptyExamples(t *testing.T) {
	m := classifier(t, 7, 4, 4, 2)
	if _, err := SGD(m, nil, Config{}); err == nil {
		t.Fatal("expected error for empty example set")
	}
}

func TestCrossEntropyRequiresSoftmax(t *testing.T) {
	b := graph.NewBuilder("nosm", graph.TaskClassification, tensor.Shape{4}, tensor.NewRNG(8))
	b.Dense(2)
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, err = SGD(m, []Example{{Input: tensor.New(4), Class: 0}}, Config{Loss: CrossEntropy})
	if err == nil {
		t.Fatal("expected error: CrossEntropy without Softmax")
	}
}

func TestSGDDeterministic(t *testing.T) {
	d := dataset.GaussianMixture("det", 50, 4, 2, 0.4, 21)
	run := func() []byte {
		m := classifier(t, 10, 4, 6, 2)
		if _, err := SGD(m, toExamples(d), Config{Epochs: 3, LearningRate: 0.05, Loss: CrossEntropy, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := graph.Encode(&buf, m); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(run(), run()) {
		t.Fatal("same seed produced different trained weights")
	}
}
