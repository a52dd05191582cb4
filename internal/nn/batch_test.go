package nn_test

import (
	"fmt"
	"math"
	"testing"

	"sommelier/internal/graph"
	"sommelier/internal/nn"
	"sommelier/internal/tensor"
	"sommelier/internal/zoo"
)

// perSample is ForwardBatch as it was before the pass was blocked — one
// Forward per sample — kept as the oracle the batched pass must match
// bit for bit, errors included.
func perSample(e *nn.Executor, samples []*tensor.Tensor) ([]*tensor.Tensor, error) {
	outs := make([]*tensor.Tensor, len(samples))
	for i, s := range samples {
		o, err := e.Forward(s)
		if err != nil {
			return nil, fmt.Errorf("nn: sample %d: %w", i, err)
		}
		outs[i] = o
	}
	return outs, nil
}

// sameBits: identical IEEE bit patterns, any NaN equal to any NaN (which
// payload survives an operation depends on operand order in the generated
// code).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

var batchSizes = []int{1, 3, 4, 5, nn.BatchBlock - 1, nn.BatchBlock, nn.BatchBlock + 1, 2*nn.BatchBlock + 3}

// checkBatch holds ForwardBatch, PredictBatch and AgreementRatio to the
// per-sample oracle at every batch size.
func checkBatch(t *testing.T, m *graph.Model, sample func(*tensor.RNG) *tensor.Tensor) {
	t.Helper()
	e, err := nn.NewExecutor(m)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(0xba7c)
	for _, n := range batchSizes {
		samples := make([]*tensor.Tensor, n)
		for i := range samples {
			samples[i] = sample(rng)
		}
		want, err := perSample(e, samples)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.ForwardBatch(samples)
		if err != nil {
			t.Fatalf("batch of %d: %v", n, err)
		}
		classes, err := e.PredictBatch(samples)
		if err != nil {
			t.Fatalf("batch of %d: %v", n, err)
		}
		for i := range want {
			if !got[i].Shape().Equal(want[i].Shape()) {
				t.Fatalf("batch of %d, sample %d: shape %v, per-sample %v", n, i, got[i].Shape(), want[i].Shape())
			}
			for j, v := range want[i].Data() {
				if !sameBits(got[i].Data()[j], v) {
					t.Fatalf("batch of %d, sample %d, output %d: %v (%#x), per-sample %v (%#x)", n, i, j,
						got[i].Data()[j], math.Float64bits(got[i].Data()[j]), v, math.Float64bits(v))
				}
			}
			if cls := want[i].ArgMax(); classes[i] != cls {
				t.Fatalf("batch of %d, sample %d: PredictBatch %d, Predict %d", n, i, classes[i], cls)
			}
		}
		if r, err := nn.AgreementRatio(e, e, samples); err != nil || r != 1 {
			t.Fatalf("batch of %d: self agreement = %v, %v", n, r, err)
		}
	}
}

func normalSample(shape tensor.Shape) func(*tensor.RNG) *tensor.Tensor {
	return func(rng *tensor.RNG) *tensor.Tensor {
		x := tensor.New(shape...)
		rng.FillNormal(x, 0, 1)
		return x
	}
}

// handBuilt returns models that between them hold every operator the zoo
// families leave out, and the wiring the buffer recycling has to get
// right: a layer read again after a pass-through aliased its buffer, an
// input listed twice, three-input Add and Mul.
func handBuilt(t *testing.T) map[string]*graph.Model {
	t.Helper()
	models := make(map[string]*graph.Model)
	build := func(name string, task graph.TaskKind, in tensor.Shape, body func(b *graph.Builder)) {
		b := graph.NewBuilder(name, task, in, tensor.NewRNG(uint64(len(models))+40))
		body(b)
		m, err := b.Build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// The builder zeroes biases and norm shifts; give them values.
		rng := tensor.NewRNG(uint64(len(models)) + 80)
		for _, l := range m.Layers {
			for _, p := range []string{"B", "Beta", "Mean"} {
				if v := l.Param(p); v != nil {
					rng.FillNormal(v, 0, 0.5)
				}
			}
			if v := l.Param("Var"); v != nil {
				rng.FillUniform(v, 0.5, 2)
			}
		}
		models[name] = m
	}
	build("embedding", graph.TaskClassification, tensor.Shape{6}, func(b *graph.Builder) {
		b.Add(graph.OpEmbedding, graph.Attrs{VocabSize: 10, EmbedDim: 4})
		b.Flatten()
		b.Dense(7)
		b.Softmax()
	})
	build("activations", graph.TaskRegression, tensor.Shape{9}, func(b *graph.Builder) {
		b.Dense(11)
		b.Add(graph.OpLeakyReLU, graph.Attrs{Alpha: 0.2})
		b.Dense(5)
		b.Sigmoid()
		b.Add(graph.OpDropout, graph.Attrs{Rate: 0.5})
		b.Dense(6)
		b.Tanh()
		b.Add(graph.OpIdentity, graph.Attrs{})
		b.Add(graph.OpLeakyReLU, graph.Attrs{})
		b.Dense(3)
	})
	build("pools", graph.TaskClassification, tensor.Shape{2, 8, 8}, func(b *graph.Builder) {
		b.Conv(3, 3, 1, 1)
		b.BatchNorm()
		b.MaxPool(2, 2)
		b.Add(graph.OpMeanPool, graph.Attrs{KernelH: 2, KernelW: 2, Stride: 2})
		b.Conv(5, 1, 1, 0)
		b.GlobalAvgPool()
		b.LayerNorm()
		b.Dense(4)
		b.Softmax()
	})
	build("gates", graph.TaskRegression, tensor.Shape{7}, func(b *graph.Builder) {
		a := b.Dense(6)
		alias := b.Add(graph.OpIdentity, graph.Attrs{}, a)
		gate := b.Add(graph.OpSigmoid, graph.Attrs{}, alias)
		mul := b.Add(graph.OpMul, graph.Attrs{}, a, gate, a)
		twice := b.Add(graph.OpAdd, graph.Attrs{}, mul, mul)
		sum := b.Add(graph.OpAdd, graph.Attrs{}, a, twice, gate)
		cat := b.Add(graph.OpConcat, graph.Attrs{}, sum, alias, mul)
		b.Add(graph.OpDense, graph.Attrs{Units: 5}, cat)
	})
	return models
}

func TestBatchedForwardMatchesPerSample(t *testing.T) {
	for _, family := range zoo.Families() {
		m, err := zoo.Build(family, zoo.Config{Name: family, Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		t.Run(family, func(t *testing.T) { checkBatch(t, m, normalSample(m.InputShape)) })
	}
	for name, m := range handBuilt(t) {
		sample := normalSample(m.InputShape)
		if name == "embedding" { // token ids, some outside the vocabulary
			sample = func(rng *tensor.RNG) *tensor.Tensor {
				x := tensor.New(m.InputShape...)
				rng.FillUniform(x, -2, 12)
				return x
			}
		}
		t.Run(name, func(t *testing.T) { checkBatch(t, m, sample) })
	}

	t.Run("preprocessor", func(t *testing.T) {
		nn.RegisterPreprocessor("nn-batch-test-pad16", func(raw *tensor.Tensor) *tensor.Tensor {
			out := tensor.New(16)
			copy(out.Data(), raw.Data())
			return out
		})
		m, err := zoo.DenseResidualNet(zoo.Config{Name: "padded", Seed: 22})
		if err != nil {
			t.Fatal(err)
		}
		m.Preprocessor = "nn-batch-test-pad16"
		checkBatch(t, m, normalSample(tensor.Shape{5}))
	})

	// NaN, ±Inf and −0 in weights and in inputs: every operator must see
	// them in the same order the per-sample pass feeds them.
	t.Run("special values", func(t *testing.T) {
		special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
		for _, family := range []string{"dense-residual", "transformerish", "inception"} {
			m, err := zoo.Build(family, zoo.Config{Name: family + "-special", Seed: 23})
			if err != nil {
				t.Fatal(err)
			}
			rng := tensor.NewRNG(24)
			for _, l := range m.Layers {
				if w := l.Param("W"); w != nil {
					for i := 0; i < 3; i++ {
						w.Data()[rng.Intn(w.NumElements())] = special[rng.Intn(len(special))]
					}
				}
			}
			checkBatch(t, m, func(rng *tensor.RNG) *tensor.Tensor {
				x := tensor.New(m.InputShape...)
				rng.FillNormal(x, 0, 1)
				if rng.Intn(2) == 0 {
					x.Data()[rng.Intn(x.NumElements())] = special[rng.Intn(len(special))]
				}
				return x
			})
		}
	})

	// A wrong-shape probe fails the batch with the error the per-sample
	// loop reports, whichever block it falls in.
	t.Run("wrong shape mid-batch", func(t *testing.T) {
		m, err := zoo.DenseResidualNet(zoo.Config{Name: "strict", Seed: 25})
		if err != nil {
			t.Fatal(err)
		}
		e, err := nn.NewExecutor(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, bad := range []int{0, 2, nn.BatchBlock - 1, nn.BatchBlock, nn.BatchBlock + 5} {
			samples := make([]*tensor.Tensor, 2*nn.BatchBlock)
			rng := tensor.NewRNG(26)
			for i := range samples {
				samples[i] = normalSample(m.InputShape)(rng)
			}
			samples[bad] = tensor.New(3)
			_, want := perSample(e, samples)
			if want == nil {
				t.Fatal("oracle accepted a wrong-shape sample")
			}
			if _, err := e.ForwardBatch(samples); err == nil || err.Error() != want.Error() {
				t.Fatalf("bad sample %d: ForwardBatch error %v, per-sample %v", bad, err, want)
			}
			if _, err := e.PredictBatch(samples); err == nil || err.Error() != want.Error() {
				t.Fatalf("bad sample %d: PredictBatch error %v, per-sample %v", bad, err, want)
			}
			if _, err := nn.AgreementRatio(e, e, samples); err == nil {
				t.Fatalf("bad sample %d: AgreementRatio succeeded", bad)
			}
		}
	})

	// Validate rules out an Add over unequal shapes; a layer whose weights
	// are swapped after the executor was built gets past it, and both
	// passes must refuse rather than fold a prefix.
	t.Run("Add over unequal shapes", func(t *testing.T) {
		b := graph.NewBuilder("skewed", graph.TaskRegression, tensor.Shape{6}, tensor.NewRNG(28))
		x := b.Dense(6)
		y := b.Dense(6)
		b.Add(graph.OpAdd, graph.Attrs{}, x, y)
		m := b.MustBuild()
		e, err := nn.NewExecutor(m)
		if err != nil {
			t.Fatal(err)
		}
		m.Layer(y).Params = map[string]*tensor.Tensor{"W": tensor.New(4, 6), "B": tensor.New(4)}
		samples := []*tensor.Tensor{tensor.New(6), tensor.New(6)}
		_, want := perSample(e, samples)
		if want == nil {
			t.Fatal("oracle added a 4-vector to a 6-vector")
		}
		if _, err := e.ForwardBatch(samples); err == nil || err.Error() != want.Error() {
			t.Fatalf("ForwardBatch error %v, per-sample %v", err, want)
		}
	})

	t.Run("empty batch", func(t *testing.T) {
		m, err := zoo.DenseResidualNet(zoo.Config{Name: "empty", Seed: 27})
		if err != nil {
			t.Fatal(err)
		}
		e, err := nn.NewExecutor(m)
		if err != nil {
			t.Fatal(err)
		}
		if outs, err := e.ForwardBatch(nil); err != nil || len(outs) != 0 {
			t.Fatalf("ForwardBatch(nil) = %v, %v", outs, err)
		}
	})
}
