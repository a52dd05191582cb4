package train

import (
	"math"
	"testing"

	"sommelier/internal/graph"
	"sommelier/internal/tensor"
)

// tinyCNN is a trainable convolutional classifier over 1×6×6 inputs.
func tinyCNN(t testing.TB, seed uint64) *graph.Model {
	t.Helper()
	b := graph.NewBuilder("cnn", graph.TaskClassification, tensor.Shape{1, 6, 6}, tensor.NewRNG(seed))
	b.Conv(4, 3, 1, 1)
	b.ReLU()
	b.MaxPool(2, 2)
	b.Flatten()
	b.Dense(2)
	b.Softmax()
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// imageExamples builds a trivially separable image task: class 0 images
// are bright in the top half, class 1 in the bottom half.
func imageExamples(n int, seed uint64) []Example {
	rng := tensor.NewRNG(seed)
	out := make([]Example, n)
	for i := range out {
		x := tensor.New(1, 6, 6)
		rng.FillNormal(x, 0, 0.2)
		cls := i % 2
		for r := 0; r < 3; r++ {
			row := r
			if cls == 1 {
				row = 3 + r
			}
			for c := 0; c < 6; c++ {
				x.Set(x.At(0, row, c)+1.5, 0, row, c)
			}
		}
		out[i] = Example{Input: x, Class: cls}
	}
	return out
}

func TestCNNLearnsImageTask(t *testing.T) {
	m := tinyCNN(t, 1)
	ex := imageExamples(200, 2)
	before, err := Evaluate(m, ex)
	if err != nil {
		t.Fatal(err)
	}
	loss, err := SGD(m, ex, Config{Epochs: 20, LearningRate: 0.03, Loss: CrossEntropy, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	after, err := Evaluate(m, ex)
	if err != nil {
		t.Fatal(err)
	}
	if after < 0.95 {
		t.Fatalf("CNN accuracy after training = %.2f (before %.2f, loss %.3f)", after, before, loss)
	}
}

func TestConvGradientMatchesFiniteDifference(t *testing.T) {
	// Numerical gradient check of the full conv chain: perturb one conv
	// weight, compare the loss delta against the analytic update.
	m := tinyCNN(t, 4)
	ex := imageExamples(1, 5)[0]
	chain, err := sequentialChain(m)
	if err != nil {
		t.Fatal(err)
	}
	lossOf := func() float64 {
		acts, _, err := forwardChain(chain, ex.Input)
		if err != nil {
			t.Fatal(err)
		}
		out := acts[len(acts)-1]
		return -math.Log(math.Max(out.Data()[ex.Class], 1e-12))
	}
	conv := m.Layer("Conv2D_1")
	w := conv.Params["W"]
	const eps = 1e-5
	for _, idx := range []int{0, 7, 20} {
		orig := w.Data()[idx]
		w.Data()[idx] = orig + eps
		up := lossOf()
		w.Data()[idx] = orig - eps
		down := lossOf()
		w.Data()[idx] = orig
		numGrad := (up - down) / (2 * eps)

		// Analytic gradient via one SGD step with tiny lr on a frozen
		// copy of everything except the conv: dW = (w_before-w_after)/lr.
		clone := m.Clone()
		frozen := map[string]bool{}
		for _, l := range clone.Layers {
			if l.Name != "Conv2D_1" {
				frozen[l.Name] = true
			}
		}
		const lr = 1e-6
		if _, err := SGD(clone, []Example{ex}, Config{
			Epochs: 1, LearningRate: lr, Loss: CrossEntropy, Frozen: frozen, Seed: 9,
		}); err != nil {
			t.Fatal(err)
		}
		moved := clone.Layer("Conv2D_1").Params["W"].Data()[idx]
		anaGrad := (orig - moved) / lr
		if diff := math.Abs(numGrad - anaGrad); diff > 1e-3*(1+math.Abs(numGrad)) {
			t.Fatalf("weight %d: numeric grad %.6f vs analytic %.6f", idx, numGrad, anaGrad)
		}
	}
}

func TestMaxPoolGradientRouting(t *testing.T) {
	l := &graph.Layer{Op: graph.OpMaxPool, Attrs: graph.Attrs{KernelH: 2, KernelW: 2, Stride: 2}}
	x := tensor.FromSlice([]float64{
		1, 2, 5, 0,
		3, 9, 1, 1,
		0, 0, 7, 2,
		4, 1, 0, 0,
	}, 1, 4, 4)
	out, arg := maxPoolForward(l, x)
	if out.At(0, 0, 0) != 9 || out.At(0, 0, 1) != 5 || out.At(0, 1, 1) != 7 {
		t.Fatalf("pool forward = %v", out.Data())
	}
	grad := tensor.FromSlice([]float64{10, 20, 30, 40}, 1, 2, 2)
	dx := maxPoolBackward(x, arg, grad.Reshape(4))
	// Gradient lands exactly on the argmax positions.
	if dx.At(0, 1, 1) != 10 || dx.At(0, 0, 2) != 20 || dx.At(0, 2, 2) != 40 {
		t.Fatalf("pool backward = %v", dx.Data())
	}
	if dx.Sum() != 100 {
		t.Fatalf("pool backward mass = %g", dx.Sum())
	}
}

func TestGlobalAvgPoolBackwardSpreadsEvenly(t *testing.T) {
	x := tensor.New(2, 2, 2)
	grad := tensor.FromSlice([]float64{4, 8}, 2)
	dx := globalAvgPoolBackward(x, grad)
	for i := 0; i < 4; i++ {
		if dx.Data()[i] != 1 {
			t.Fatalf("channel 0 grad = %v", dx.Data())
		}
	}
	for i := 4; i < 8; i++ {
		if dx.Data()[i] != 2 {
			t.Fatalf("channel 1 grad = %v", dx.Data())
		}
	}
}

func TestBatchNormBackwardUpdatesAffineParams(t *testing.T) {
	b := graph.NewBuilder("bn", graph.TaskClassification, tensor.Shape{4}, tensor.NewRNG(7))
	b.Dense(4)
	b.BatchNorm()
	b.ReLU()
	b.Dense(2)
	b.Softmax()
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	bn := m.Layer("BatchNorm_2")
	gammaBefore := bn.Params["Gamma"].Clone()
	meanBefore := bn.Params["Mean"].Clone()
	ex := []Example{{Input: tensor.New(4).Fill(1), Class: 0}}
	if _, err := SGD(m, ex, Config{Epochs: 3, LearningRate: 0.1, Loss: CrossEntropy, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if tensor.L2Distance(gammaBefore, bn.Params["Gamma"]) == 0 {
		t.Fatal("Gamma did not train")
	}
	// Running statistics never move during fine-tuning.
	if tensor.L2Distance(meanBefore, bn.Params["Mean"]) != 0 {
		t.Fatal("running mean moved")
	}
}

func TestFrozenConvTrunkHeadOnlyTraining(t *testing.T) {
	// The §2 workflow end-to-end: keep a conv feature extractor, give
	// it a fresh head, train only the head.
	ds := tinyCNN(t, 11)
	head := ds.Layer("Dense_5")
	tensor.NewRNG(12).FillXavier(head.Params["W"])
	head.Params["B"].Fill(0)
	frozen := map[string]bool{"Conv2D_1": true, "ReLU_2": true, "MaxPool_3": true, "Flatten_4": true}
	convBefore := ds.Layer("Conv2D_1").Params["W"].Clone()
	ex := imageExamples(120, 13)
	if _, err := SGD(ds, ex, Config{
		Epochs: 15, LearningRate: 0.05, Loss: CrossEntropy, Frozen: frozen, Seed: 14,
	}); err != nil {
		t.Fatal(err)
	}
	if tensor.L2Distance(convBefore, ds.Layer("Conv2D_1").Params["W"]) != 0 {
		t.Fatal("frozen conv trunk moved")
	}
	acc, err := Evaluate(ds, ex)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Fatalf("head-only training accuracy = %.2f", acc)
	}
}
