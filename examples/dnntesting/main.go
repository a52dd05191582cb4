// DNN testing: the paper's offline case study (§6, Figure 8 right). A
// model arrives for robustness testing; the pipeline queries Sommelier
// for N functionally equivalent variants and uses them as an adversarial
// input detector — inputs on which the variants disagree with the tested
// model sit near its decision boundary (the DeepXplore recipe, §2).
package main

import (
	"context"
	"fmt"
	"log"

	"sommelier"
	"sommelier/internal/dataset"
	"sommelier/internal/nn"
	"sommelier/internal/repo"
	"sommelier/internal/tensor"
	"sommelier/internal/zoo"
)

func main() {
	ctx := context.Background()
	store := repo.NewInMemory()
	eng, err := sommelier.NewEngine(store, sommelier.WithSeed(5))
	if err != nil {
		log.Fatal(err)
	}

	// Populate the repository with a family of related models.
	tested, err := zoo.DenseResidualNet(zoo.Config{
		Name: "under-test", Seed: 1, InDim: 16, Classes: 8, Width: 32, Depth: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	testedID, err := eng.RegisterContext(ctx, tested)
	if err != nil {
		log.Fatal(err)
	}
	probes := dataset.RandomImages(300, tested.InputShape, 2)
	for i := 0; i < 6; i++ {
		target := 0.04 + 0.03*float64(i)
		v, _, err := zoo.CalibratedVariant(tested, fmt.Sprintf("sibling-%d", i), target, probes, uint64(20+i))
		if err != nil {
			log.Fatal(err)
		}
		if _, err := eng.RegisterContext(ctx, v); err != nil {
			log.Fatal(err)
		}
	}

	// One query replaces the manual variant hunt: "similar but not
	// identical" models make the best detectors.
	const n = 3
	q := fmt.Sprintf(`SELECT CORR %q WITHIN 75%% PICK most_similar LIMIT %d`, testedID, n)
	fmt.Printf("query: %s\n\n", q)
	results, err := eng.QueryContext(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	detectors := make([]*nn.Executor, 0, len(results))
	for _, r := range results {
		m, err := eng.Materialize(r)
		if err != nil {
			log.Fatal(err)
		}
		e, err := nn.NewExecutor(m)
		if err != nil {
			log.Fatal(err)
		}
		detectors = append(detectors, e)
		fmt.Printf("detector %-12s equivalence level %.3f\n", r.ID, r.Level)
	}

	// Scan random inputs: any disagreement between the tested model and
	// a detector flags a decision-boundary ("tricky") input.
	testedExec, err := nn.NewExecutor(tested)
	if err != nil {
		log.Fatal(err)
	}
	rng := tensor.NewRNG(99)
	flagged := 0
	const scans = 500
	var firstTricky *tensor.Tensor
	for i := 0; i < scans; i++ {
		x := tensor.New(16)
		rng.FillNormal(x, 0, 1)
		want, err := testedExec.Predict(x)
		if err != nil {
			log.Fatal(err)
		}
		for _, d := range detectors {
			got, err := d.Predict(x)
			if err != nil {
				log.Fatal(err)
			}
			if got != want {
				flagged++
				if firstTricky == nil {
					firstTricky = x
				}
				break
			}
		}
	}
	fmt.Printf("\nscanned %d random inputs, flagged %d (%.1f%%) as decision-boundary candidates\n",
		scans, flagged, 100*float64(flagged)/scans)
	if firstTricky != nil {
		out, err := testedExec.Forward(firstTricky)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("example tricky input: tested model's confidence on its own prediction is only %.2f\n",
			out.Max())
	}
}
