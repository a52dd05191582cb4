// Model design: the paper's second offline case study (§6). A designer
// wants a base model for a new downstream task. Instead of trial
// training runs on every plausible base, Sommelier's segment analysis
// picks the base whose trunk transfers best, and only the final head is
// trained — with real SGD, using internal/train.
package main

import (
	"context"
	"fmt"
	"log"

	"sommelier"
	"sommelier/internal/dataset"
	"sommelier/internal/equiv"
	"sommelier/internal/graph"
	"sommelier/internal/nn"
	"sommelier/internal/repo"
	"sommelier/internal/tensor"
	"sommelier/internal/train"
	"sommelier/internal/zoo"
)

func main() {
	ctx := context.Background()
	store := repo.NewInMemory()
	eng, err := sommelier.NewEngine(store,
		sommelier.WithSeed(3), sommelier.WithSegments(true), sommelier.WithSegmentMinLen(3))
	if err != nil {
		log.Fatal(err)
	}

	// Candidate bases in the repository: one well-trained family plus a
	// transfer variant that shares its trunk.
	base, err := zoo.DenseResidualNet(zoo.Config{
		Name: "pretrained-base", Seed: 1, InDim: 12, Classes: 6, Width: 24, Depth: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	cousin, err := zoo.Transfer(base, "community-finetune", 10, 99, 0, 2)
	if err != nil {
		log.Fatal(err)
	}
	baseID, err := eng.RegisterContext(ctx, base)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := eng.RegisterContext(ctx, cousin); err != nil {
		log.Fatal(err)
	}

	// The designer asks: which stored models share reusable structure
	// with my reference? Synthesized candidates expose the shared trunk.
	top, err := eng.TopEquivalents(baseID, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("equivalents of the reference (segment matches marked):")
	for _, r := range top {
		tag := "whole model"
		if r.Synthesized {
			tag = fmt.Sprintf("shared segment %s from %s", r.Segment, r.DonorID)
		}
		fmt.Printf("  %-24s level %.3f  (%s)\n", r.ID, r.Level, tag)
	}

	// Build the new downstream model: reuse the base's trunk verbatim,
	// attach a fresh head for a 4-class task, and fine-tune ONLY the
	// head on task data.
	newModel, frozen, err := reuseTrunk(base, 4)
	if err != nil {
		log.Fatal(err)
	}
	task := dataset.GaussianMixture("downstream-task", 400, 12, 4, 0.4, 7)
	trainSet, valSet := task.Split(0.8)
	examples := make([]train.Example, trainSet.Len())
	for i := range examples {
		examples[i] = train.Example{Input: trainSet.Inputs[i], Class: trainSet.Labels[i]}
	}
	before, err := accuracy(newModel, valSet)
	if err != nil {
		log.Fatal(err)
	}
	loss, err := train.SGD(newModel, examples, train.Config{
		Epochs: 40, LearningRate: 0.05, Loss: train.CrossEntropy,
		Frozen: frozen, Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}
	after, err := accuracy(newModel, valSet)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfine-tuned head only (trunk frozen): accuracy %.1f%% -> %.1f%% (loss %.3f)\n",
		before*100, after*100, loss)

	// Verify the trunk is still interchangeable with the base's — the
	// invariant that makes the reuse safe.
	pairs, err := equiv.CommonSegments(newModel, base, 3)
	if err != nil {
		log.Fatal(err)
	}
	if len(pairs) == 0 {
		log.Fatal("trunk no longer shared — freezing failed")
	}
	bound, err := equiv.PropagateBound(pairs[0], 0, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trunk still identical to the base's: propagated difference bound = %.2g\n", bound)
}

// reuseTrunk builds a sequential model that copies base's trunk weights
// (the layers before the head) and attaches a fresh classifier head.
// Residual blocks are not SGD-trainable in internal/train, so the trunk
// here is the pre-residual stem; the frozen set covers every copied
// layer.
func reuseTrunk(base *graph.Model, classes int) (*graph.Model, map[string]bool, error) {
	stemDense := base.Layer("Dense_1")
	if stemDense == nil {
		return nil, nil, fmt.Errorf("base has no stem dense layer")
	}
	width := stemDense.Attrs.Units
	b := graph.NewBuilder("downstream", graph.TaskClassification, base.InputShape.Clone(), nil)
	stem := b.Dense(width)
	b.ReLU()
	b.Dense(classes)
	b.Softmax()
	m, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	// Copy the stem weights verbatim.
	dst := m.Layer(stem)
	for name, p := range stemDense.Params {
		dst.Params[name] = p.Clone()
	}
	// Initialize the fresh head to small random values so training has
	// gradients to work with. (Builder layer names use a global
	// sequence: input, Dense_1, ReLU_2, Dense_3, Softmax_4.)
	head := m.Layer("Dense_3")
	rng := headInitRNG()
	rng.FillXavier(head.Params["W"])
	if err := m.Validate(); err != nil {
		return nil, nil, err
	}
	return m, map[string]bool{stem: true}, nil
}

func headInitRNG() *tensor.RNG { return tensor.NewRNG(17) }

func accuracy(m *graph.Model, d *dataset.Dataset) (float64, error) {
	e, err := nn.NewExecutor(m)
	if err != nil {
		return 0, err
	}
	return dataset.Accuracy(e, d)
}
