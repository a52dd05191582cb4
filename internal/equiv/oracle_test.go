package equiv

import (
	"fmt"
	"math"
	"testing"

	"sommelier/internal/dataset"
	"sommelier/internal/graph"
	"sommelier/internal/nn"
	"sommelier/internal/tensor"
	"sommelier/internal/zoo"
)

// oracleCheckWhole is CheckWhole as it stood before analysis was split
// into Observe and Compare: both models are rebuilt and re-run for the
// pair in hand, and the bound is recomputed from the candidate's
// weights. It is the brute-force reference the evidence path must match
// bit for bit.
func oracleCheckWhole(reference, candidate *graph.Model, val *dataset.Dataset, opts Options) (WholeResult, error) {
	if ok, reason := IOCompatible(reference, candidate); !ok {
		return WholeResult{Compatible: false, Reason: reason}, nil
	}
	refExec, err := nn.NewExecutor(reference)
	if err != nil {
		return WholeResult{}, fmt.Errorf("equiv: reference: %w", err)
	}
	candExec, err := nn.NewExecutor(candidate)
	if err != nil {
		return WholeResult{}, fmt.Errorf("equiv: candidate: %w", err)
	}
	emp, err := oracleEmpirical(refExec, candExec, val)
	if err != nil {
		return WholeResult{}, fmt.Errorf("equiv: measuring QoR difference: %w", err)
	}
	res := WholeResult{Compatible: true, EmpiricalDiff: emp}
	if opts.Bound == BoundOn {
		gb, err := oracleBound(candidate, val.Len(), opts.gamma())
		if err != nil {
			return WholeResult{}, fmt.Errorf("equiv: generalization bound: %w", err)
		}
		res.GeneralizationBound = gb
	}
	res.BoundedDiff = res.EmpiricalDiff + res.GeneralizationBound
	if res.BoundedDiff > 1 {
		res.BoundedDiff = 1
	}
	res.Equivalent = res.BoundedDiff <= opts.Epsilon
	return res, nil
}

// oracleEmpirical is the empirical QoR difference as it was measured
// before the executor batched: one Predict or Forward per probe per
// model, never the blocked pass.
func oracleEmpirical(ref, cand *nn.Executor, val *dataset.Dataset) (float64, error) {
	if val.Len() == 0 {
		return 0, fmt.Errorf("dataset %q is empty", val.Name)
	}
	n := float64(val.Len())
	if val.Labels == nil && ref.Model().Task != graph.TaskClassification {
		total := 0.0
		for _, x := range val.Inputs {
			oa, err := ref.Forward(x)
			if err != nil {
				return 0, err
			}
			ob, err := cand.Forward(x)
			if err != nil {
				return 0, err
			}
			total += tensor.L2Distance(oa, ob)
		}
		return total / n, nil
	}
	agree, correctRef, correctCand := 0, 0, 0
	for i, x := range val.Inputs {
		a, err := ref.Predict(x)
		if err != nil {
			return 0, err
		}
		b, err := cand.Predict(x)
		if err != nil {
			return 0, err
		}
		if a == b {
			agree++
		}
		if val.Labels != nil {
			if a == val.Labels[i] {
				correctRef++
			}
			if b == val.Labels[i] {
				correctCand++
			}
		}
	}
	if val.Labels != nil {
		return math.Abs(float64(correctRef)/n - float64(correctCand)/n), nil
	}
	return 1 - float64(agree)/n, nil
}

// oracleBound is GeneralizationBound as one expression over the model,
// n and γ, before the model-only factor was split out, with the
// output-norm probe as the per-sample loop it was before the executor
// batched: its own topological sort, its own executor, one Forward per
// probe.
func oracleBound(m *graph.Model, n int, gamma float64) (float64, error) {
	order, err := m.TopoSort()
	if err != nil {
		order = m.Layers
	}
	linear := linearLayers(order)
	if len(linear) == 0 {
		return 0, nil
	}
	d := float64(len(m.Layers))
	var sum float64
	for i := range linear {
		mu, muNext := layerCushion(linear[i]), 1.0
		if i+1 < len(linear) {
			muNext = layerCushion(linear[i+1])
		}
		sum += 1 / (mu * mu * muNext * muNext)
	}
	fNorm, err := oracleOutputNorm(m)
	if err != nil {
		return 0, err
	}
	return math.Min(1, 0.011*math.Sqrt(d*d*fNorm*sum/(gamma*gamma*float64(n)))), nil
}

func oracleOutputNorm(m *graph.Model) (float64, error) {
	if out, err := m.OutputLayerName(); err == nil {
		if l := m.Layer(out); l != nil && l.Op == graph.OpSoftmax {
			return 1, nil
		}
	}
	exec, err := nn.NewExecutor(m)
	if err != nil {
		return 0, err
	}
	rng := tensor.NewRNG(0x5eed)
	max := 0.0
	for i := 0; i < 8; i++ {
		x := tensor.New(m.InputShape...)
		rng.FillNormal(x, 0, 1)
		o, err := exec.Forward(x)
		if err != nil {
			return 0, err
		}
		if n := o.L2Norm(); n > max {
			max = n
		}
	}
	if max == 0 {
		return 1, nil
	}
	return max, nil
}

func oracleCheckPair(ref, cand *graph.Model, refVal, candVal *dataset.Dataset, opts Options) (fwd, rev WholeResult, err error) {
	if fwd, err = oracleCheckWhole(ref, cand, refVal, opts); err != nil {
		return WholeResult{}, WholeResult{}, err
	}
	if rev, err = oracleCheckWhole(cand, ref, candVal, opts); err != nil {
		return WholeResult{}, WholeResult{}, err
	}
	return fwd, rev, nil
}

func zooModel(t *testing.T, build func(zoo.Config) (*graph.Model, error), cfg zoo.Config) *graph.Model {
	t.Helper()
	m, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestEvidencePathMatchesOracle is the differential test of the
// observe/compare split: over every branch of the §4.1 check, CheckWhole,
// CheckPair and a hand-composed Observe+Compare (what the catalog does)
// return WholeResults equal to the oracle's under ==, not a tolerance.
func TestEvidencePathMatchesOracle(t *testing.T) {
	// A preprocessor that fits any raw sample to 24 features, so a
	// 24-input model can be probed with another model's 16-feature data.
	nn.RegisterPreprocessor("equiv-oracle-fit24", func(raw *tensor.Tensor) *tensor.Tensor {
		out := tensor.New(24)
		copy(out.Data(), raw.Data())
		return out
	})

	dense := zooModel(t, zoo.DenseResidualNet, zoo.Config{Name: "dense", Seed: 1})
	near := zoo.Perturb(dense, "dense-near", 0.05, 2)
	far := zoo.Perturb(dense, "dense-far", 0.8, 3)
	conv := zooModel(t, zoo.ConvNet, zoo.Config{Name: "conv", Seed: 4})
	wide := zooModel(t, zoo.DenseResidualNet, zoo.Config{Name: "wide", Seed: 5, InDim: 24})
	wide.Preprocessor = "equiv-oracle-fit24"
	regA, regB := regressionNet(t, "reg-a", 6, 4), regressionNet(t, "reg-b", 7, 4)

	labelled := valSet(t, dense, 60, 8)
	unlabelled := &dataset.Dataset{Name: "probes", Inputs: dataset.RandomImages(50, dense.InputShape, 9)}
	regProbes := &dataset.Dataset{Name: "reg-probes", Inputs: dataset.RandomImages(40, regA.InputShape, 10)}
	convProbes := &dataset.Dataset{Name: "conv-probes", Inputs: dataset.RandomImages(10, conv.InputShape, 11)}

	cases := []struct {
		name             string
		ref, cand        *graph.Model
		refVal, candVal  *dataset.Dataset
		wantIncompatible bool
	}{
		{name: "labelled", ref: dense, cand: near, refVal: labelled, candVal: labelled},
		{name: "label-free classification", ref: dense, cand: far, refVal: unlabelled, candVal: unlabelled},
		{name: "label-free regression", ref: regA, cand: regB, refVal: regProbes, candVal: regProbes},
		{name: "io-incompatible", ref: dense, cand: conv, refVal: unlabelled, candVal: convProbes, wantIncompatible: true},
		{name: "one-sided preprocessor", ref: dense, cand: wide, refVal: unlabelled, candVal: unlabelled},
		{name: "distinct datasets", ref: near, cand: far, refVal: labelled, candVal: unlabelled},
	}
	for _, tc := range cases {
		for _, opts := range []Options{
			{Epsilon: 1, Bound: BoundOn},
			{Epsilon: 0.2, Bound: BoundOn, Gamma: 2},
			{Epsilon: 0.2, Bound: BoundOff},
		} {
			t.Run(fmt.Sprintf("%s/bound=%d/gamma=%g", tc.name, opts.Bound, opts.Gamma), func(t *testing.T) {
				wantFwd, wantRev, err := oracleCheckPair(tc.ref, tc.cand, tc.refVal, tc.candVal, opts)
				if err != nil {
					t.Fatal(err)
				}
				if wantFwd.Compatible == tc.wantIncompatible {
					t.Fatalf("case does not exercise its branch: compatible = %v", wantFwd.Compatible)
				}
				fwd, rev, err := CheckPair(tc.ref, tc.cand, tc.refVal, tc.candVal, opts)
				if err != nil {
					t.Fatal(err)
				}
				if fwd != wantFwd || rev != wantRev {
					t.Fatalf("CheckPair = %+v / %+v, oracle %+v / %+v", fwd, rev, wantFwd, wantRev)
				}
				whole, err := CheckWhole(tc.ref, tc.cand, tc.refVal, opts)
				if err != nil {
					t.Fatal(err)
				}
				if whole != wantFwd {
					t.Fatalf("CheckWhole = %+v, oracle %+v", whole, wantFwd)
				}
				if tc.wantIncompatible {
					return
				}
				refEv, err := Observe(tc.ref, tc.candVal, opts)
				if err != nil {
					t.Fatal(err)
				}
				candEv, err := Observe(tc.cand, tc.candVal, opts)
				if err != nil {
					t.Fatal(err)
				}
				composed, err := Compare(candEv, refEv, opts)
				if err != nil {
					t.Fatal(err)
				}
				if composed != wantRev {
					t.Fatalf("Observe+Compare = %+v, oracle %+v", composed, wantRev)
				}
			})
		}
	}
}

// TestCompareRejectsMismatchedEvidence: evidence from different
// validation sets, or observed without the bound factor a bounded
// comparison needs, is an error rather than a wrong number.
func TestCompareRejectsMismatchedEvidence(t *testing.T) {
	m := zooModel(t, zoo.DenseResidualNet, zoo.Config{Name: "dense", Seed: 1})
	small := &dataset.Dataset{Name: "small", Inputs: dataset.RandomImages(5, m.InputShape, 1)}
	large := &dataset.Dataset{Name: "large", Inputs: dataset.RandomImages(6, m.InputShape, 1)}
	on, off := Options{Epsilon: 1}, Options{Epsilon: 1, Bound: BoundOff}
	a, err := Observe(m, small, on)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Observe(m, large, on)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compare(a, b, on); err == nil {
		t.Fatal("evidence of different sizes compared without error")
	}
	unbounded, err := Observe(m, small, off)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compare(a, unbounded, on); err == nil {
		t.Fatal("bounded comparison accepted a candidate observed with the bound off")
	}
	if _, err := Compare(a, unbounded, off); err != nil {
		t.Fatalf("unbounded comparison needs no bound factor: %v", err)
	}
}

// TestGeneralizationBoundReportsUnrunnableModel: the output-norm probe
// used to swallow a failing forward pass and report the bound as if
// max‖f(x)‖ were 1.
func TestGeneralizationBoundReportsUnrunnableModel(t *testing.T) {
	nn.RegisterPreprocessor("equiv-test-wrong-shape", func(*tensor.Tensor) *tensor.Tensor {
		return tensor.New(1)
	})
	m := regressionNet(t, "unrunnable", 1, 4)
	if _, err := GeneralizationBound(m, 100, 1); err != nil {
		t.Fatalf("runnable model: %v", err)
	}
	m.Preprocessor = "equiv-test-wrong-shape"
	if gb, err := GeneralizationBound(m, 100, 1); err == nil {
		t.Fatalf("bound of a model whose forward pass fails = %g, want an error", gb)
	}
	probes := &dataset.Dataset{Name: "p", Inputs: dataset.RandomImages(4, m.InputShape, 2)}
	if _, err := Observe(m, probes, Options{}); err == nil {
		t.Fatal("Observe of an unrunnable model succeeded")
	}
}
