// Quickstart: build a small model repository, stand Sommelier up over
// it, and run the paper's canonical query — "find the model most
// interchangeable with this reference that uses less memory".
package main

import (
	"context"
	"fmt"
	"log"

	"sommelier"
	"sommelier/internal/dataset"
	"sommelier/internal/repo"
	"sommelier/internal/zoo"
)

func main() {
	ctx := context.Background()
	// 1. A bare-bone repository — the "remote filesystem" existing hubs
	//    provide (§2.1). Use repo.Open(dir) for a directory-backed one.
	store := repo.NewInMemory()

	// 2. The Sommelier engine interposes on it (Figure 1).
	eng, err := sommelier.NewEngine(store, sommelier.WithSeed(42))
	if err != nil {
		log.Fatal(err)
	}

	// 3. Publish a reference model and some variants. Register both
	//    stores the model and builds its semantic + resource index
	//    entries (§5.2, §5.3).
	base, err := zoo.DenseResidualNet(zoo.Config{
		Name: "resnet50ish", Seed: 1, InDim: 16, Classes: 8, Width: 32, Depth: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	refID, err := eng.RegisterContext(ctx, base)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("registered reference %s (%d parameters)\n", refID, base.ParamCount())

	probes := dataset.RandomImages(300, base.InputShape, 2)
	for i, target := range []float64{0.03, 0.08, 0.15} {
		variant, achieved, err := zoo.CalibratedVariant(base,
			fmt.Sprintf("variant-%d", i), target, probes, uint64(10+i))
		if err != nil {
			log.Fatal(err)
		}
		id, err := eng.RegisterContext(ctx, variant)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("registered %-12s (disagrees with reference on %.1f%% of inputs)\n",
			id, achieved*100)
	}
	// A wider (more expensive) sibling that behaves almost identically.
	big, err := zoo.Inflate(base, "resnet50ish-wide", 32, 96, 3)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := eng.RegisterContext(ctx, big); err != nil {
		log.Fatal(err)
	}

	// 4. Query in the Figure 7 syntax: at least 85% interchangeable with
	//    the reference, at most its memory footprint, most similar first.
	q := fmt.Sprintf(`SELECT CORR %q WITHIN 85%% ON memory <= 100%% PICK most_similar`, refID)
	fmt.Printf("\nquery: %s\n\n", q)
	results, err := eng.QueryContext(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	if len(results) == 0 {
		fmt.Println("no model satisfies the query")
		return
	}
	fmt.Printf("%-18s %-8s %-12s %-10s\n", "MODEL", "LEVEL", "MEMORY(MB)", "GFLOPS")
	for _, r := range results {
		v := r.Profile.Vector()
		fmt.Printf("%-18s %-8.3f %-12.4f %-10.5f\n", r.ID, r.Level, v[0], v[1])
	}

	// 5. Materialize and use the winner.
	best, err := eng.Materialize(results[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nselected %s: %d parameters, ready to serve\n", best.Name, best.ParamCount())

	// 6. Ask WHY: the explanation shows what each pipeline stage did
	//    (Sommelier as an "explanation database for DNNs").
	exp, err := eng.ExplainContext(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s", exp)
}
