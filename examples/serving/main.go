// Serving: the paper's online case study (§6, Figure 8 left). An
// inference server checks its execution environment and, instead of a
// hardcoded model ladder, asks Sommelier for the best model fitting the
// current resource conditions — automatic model switching.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"sommelier"
	"sommelier/internal/equiv"
	"sommelier/internal/graph"
	"sommelier/internal/nn"
	"sommelier/internal/repo"
	"sommelier/internal/resource"
	"sommelier/internal/serving"
	"sommelier/internal/tensor"
	"sommelier/internal/zoo"
)

func main() {
	ctx := context.Background()
	// Build the repository: a flagship model and a ladder of compact
	// functional equivalents at genuinely smaller widths.
	store := repo.NewInMemory()
	// Testing-only scoring (bound off) keeps levels ordered purely by
	// measured interchangeability, which reads better in a demo; see
	// the ablation benches for what the bound adds.
	eng, err := sommelier.NewEngine(store,
		sommelier.WithSeed(7), sommelier.WithBound(equiv.BoundOff))
	if err != nil {
		log.Fatal(err)
	}
	teacher, err := zoo.DenseResidualNet(zoo.Config{
		Name: "task-teacher", Seed: 1, InDim: 16, Classes: 8, Width: 32, Depth: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	ladder, err := zoo.SizeLadder("prod", teacher, 32,
		[]int{32, 64, 128, 256}, []float64{0.06, 0.04, 0.03, 0.02}, 2)
	if err != nil {
		log.Fatal(err)
	}
	flagship := ladder[len(ladder)-1]
	flagID, err := eng.RegisterContext(ctx, flagship)
	if err != nil {
		log.Fatal(err)
	}
	for _, m := range ladder[:len(ladder)-1] {
		if _, err := eng.RegisterContext(ctx, m); err != nil {
			log.Fatal(err)
		}
	}

	// The server's inner loop (Figure 8): on changing machine
	// conditions, formulate a query from the current resource quota and
	// switch to whatever Sommelier returns.
	fmt.Println("simulating a server adapting to its memory quota:")
	input := tensor.New(16)
	tensor.NewRNG(9).FillNormal(input, 0, 1)
	for _, quota := range []int{100, 50, 10, 2} { // % of flagship memory
		q := fmt.Sprintf(`SELECT CORR %q WITHIN 80%% ON memory <= %d%% PICK most_similar LIMIT 1`,
			flagID, quota)
		results, err := eng.QueryContext(ctx, q)
		if err != nil {
			log.Fatal(err)
		}
		if len(results) == 0 {
			fmt.Printf("  quota %3d%%: no model fits — keep the current one\n", quota)
			continue
		}
		m, err := eng.Materialize(results[0])
		if err != nil {
			log.Fatal(err)
		}
		cls, err := mustExecutor(m).Predict(input)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  quota %3d%%: switched to %-12s (level %.3f, %7d params) -> class %d\n",
			quota, results[0].ID, results[0].Level, m.ParamCount(), cls)
	}

	// End-to-end effect on tail latency: replay a bursty trace under the
	// fixed baseline vs Sommelier-driven switching (Figure 9(c)).
	// Service times are FLOPs-proportional with the flagship at 20 ms.
	results, err := eng.QueryContext(ctx, fmt.Sprintf(`SELECT CORR %q WITHIN 60%% PICK most_similar`, flagID))
	if err != nil {
		log.Fatal(err)
	}
	flagProf, err := resource.NewProfiler(nil).Measure(flagship)
	if err != nil {
		log.Fatal(err)
	}
	candidates := []serving.ModelChoice{{ID: flagID, ServiceMS: 20, Level: 1}}
	for _, r := range results {
		candidates = append(candidates, serving.ModelChoice{
			ID:        r.ID,
			ServiceMS: 20 * float64(r.Profile.FLOPs) / float64(flagProf.FLOPs),
			Level:     r.Level,
		})
	}
	// The switching policy steps down the list as queues grow, so order
	// candidates from most to least expensive.
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].ServiceMS > candidates[j].ServiceMS })

	w := serving.Workload{
		Requests: 10000, MeanArrivalMS: 26,
		BurstEvery: 400, BurstLen: 80, BurstFactor: 3.5, Seed: 3,
	}
	cmp, err := serving.RunComparisonContext(ctx, nil, w, candidates, 4, serving.FailureModel{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntail latency over a bursty trace (ms):")
	for _, r := range []serving.Result{cmp.Baseline, cmp.Switching} {
		s := r.Summary()
		fmt.Printf("  %-22s p50 %7.1f   p90 %7.1f   p99 %7.1f   mean-level %.3f\n",
			r.PolicyName, s.P50, s.P90, s.P99, r.MeanLevel)
	}
}

func mustExecutor(m *graph.Model) *nn.Executor {
	e, err := nn.NewExecutor(m)
	if err != nil {
		log.Fatal(err)
	}
	return e
}
