package sommelier_test

import (
	"context"
	"fmt"
	"log"

	"sommelier"
	"sommelier/internal/graph"
	"sommelier/internal/repo"
	"sommelier/internal/tensor"
	"sommelier/internal/zoo"
)

// Example shows the minimal end-to-end flow: publish a model family,
// query for a compact equivalent, and materialize the winner.
func Example() {
	ctx := context.Background()
	store := repo.NewInMemory()
	eng, err := sommelier.NewEngine(store, sommelier.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}

	base := buildModel("flagship", 1)
	refID, err := eng.RegisterContext(ctx, base)
	if err != nil {
		log.Fatal(err)
	}
	// A near-identical clone and a behaviourally distant sibling.
	clone := base.Clone()
	clone.Name = "clone"
	if _, err := eng.RegisterContext(ctx, clone); err != nil {
		log.Fatal(err)
	}
	if _, err := eng.RegisterContext(ctx, zoo.Perturb(base, "distant", 1.5, 2)); err != nil {
		log.Fatal(err)
	}

	results, err := eng.QueryContext(ctx,
		`SELECT CORR "`+refID+`" WITHIN 90% PICK most_similar LIMIT 1`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(results[0].ID)
	// Output: clone@1
}

// ExampleEngine_Query demonstrates relative resource constraints: the
// wide sibling is excluded by a memory budget below its footprint.
func ExampleEngine_QueryContext() {
	ctx := context.Background()
	store := repo.NewInMemory()
	eng, err := sommelier.NewEngine(store, sommelier.WithSeed(3))
	if err != nil {
		log.Fatal(err)
	}
	base := buildModel("ref", 5)
	refID, err := eng.RegisterContext(ctx, base)
	if err != nil {
		log.Fatal(err)
	}
	wide, err := zoo.Inflate(base, "wide", 16, 64, 7)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := eng.RegisterContext(ctx, wide); err != nil {
		log.Fatal(err)
	}

	within, err := eng.QueryContext(ctx, `SELECT CORR "`+refID+`" WITHIN 80% ON memory <= 500% PICK most_similar`)
	if err != nil {
		log.Fatal(err)
	}
	tight, err := eng.QueryContext(ctx, `SELECT CORR "`+refID+`" WITHIN 80% ON memory <= 120% PICK most_similar`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(within), len(tight))
	// Output: 1 0
}

func buildModel(name string, seed uint64) *graph.Model {
	b := graph.NewBuilder(name, graph.TaskClassification, tensor.Shape{12}, tensor.NewRNG(seed))
	b.Dense(16)
	b.ReLU()
	b.Dense(4)
	b.Softmax()
	return b.MustBuild()
}
