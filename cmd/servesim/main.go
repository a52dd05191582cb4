// Command servesim runs the Figure 9(c) inference-serving simulation.
//
// It prints latency percentiles and model shares for the four §7.1
// configurations (fixed baseline, scale-out, Sommelier switching,
// combined); a switch-failure probability subjects the switching
// configurations to a fault model. Percentiles come from the
// observability layer: each configuration's latencies feed a
// serving_<policy>_latency_ms histogram and the table reads the
// histogram summaries — the same numbers -metrics exports as JSON.
//
//	servesim -requests 50000 -arrival 22 -burst-factor 8
//	servesim -switch-fail 0.3            # re-examine Fig. 9(c) under faults
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"sommelier/internal/obs"
	"sommelier/internal/serving"
)

func main() {
	var (
		requests    = flag.Int("requests", 20000, "number of inference requests")
		arrival     = flag.Float64("arrival", 26, "mean inter-arrival gap (ms)")
		burstEvery  = flag.Int("burst-every", 400, "inject a burst every N requests (0 = no bursts)")
		burstLen    = flag.Int("burst-len", 80, "requests per burst")
		burstFactor = flag.Float64("burst-factor", 3.5, "burst arrival-rate multiplier")
		switchStep  = flag.Int("switch-step", 4, "queue-length step between model downgrades")
		switchFail  = flag.Float64("switch-fail", 0, "probability a model switch fails (falls back to the deployed model)")
		seed        = flag.Uint64("seed", 1, "random seed")
		metrics     = flag.Bool("metrics", false, "print the observability snapshot as JSON after the run")
		trace       = flag.Bool("trace", false, "print the simulation span tree after the run")
	)
	flag.Parse()

	// The candidate ladder Sommelier would return: flagship first, then
	// progressively compact functional equivalents.
	candidates := []serving.ModelChoice{
		{ID: "flagship", ServiceMS: 20, Level: 1.0},
		{ID: "mid", ServiceMS: 8, Level: 0.975},
		{ID: "compact", ServiceMS: 3, Level: 0.955},
		{ID: "tiny", ServiceMS: 1, Level: 0.93},
	}

	w := serving.Workload{
		Requests:      *requests,
		MeanArrivalMS: *arrival,
		BurstEvery:    *burstEvery,
		BurstLen:      *burstLen,
		BurstFactor:   *burstFactor,
		Seed:          *seed,
	}
	fm := serving.FailureModel{SwitchFailProb: *switchFail, Seed: *seed + 1}

	o := obs.New()
	ctx, root := o.StartSpan(context.Background(), "servesim", "")
	spanCtx, span := o.StartSpan(ctx, "comparison", fmt.Sprintf("%d requests", *requests))
	cmp, err := serving.RunComparisonContext(spanCtx, o, w, candidates, *switchStep, fm)
	span.End()
	root.End()
	if err != nil {
		fmt.Fprintln(os.Stderr, "servesim:", err)
		os.Exit(1)
	}
	snap := o.Snapshot()
	histFor := func(r serving.Result) obs.HistSummary {
		return snap.Histograms["serving_"+serving.MetricName(r.PolicyName)+"_latency_ms"]
	}

	fmt.Printf("workload: %d requests, mean gap %.1fms, bursts x%.0f every %d", *requests, *arrival, *burstFactor, *burstEvery)
	if *switchFail > 0 {
		fmt.Printf(", switch failure p=%.2f", *switchFail)
	}
	fmt.Printf("\n\n")
	fmt.Printf("%-22s %8s %8s %8s %8s %11s %9s  %s\n",
		"CONFIGURATION", "P50", "P95", "P99", "MAX", "MEAN-LEVEL", "SW-FAIL", "MODEL SHARE")
	for _, r := range []serving.Result{cmp.Baseline, cmp.ScaleOut, cmp.Switching, cmp.Combined} {
		s := histFor(r)
		rep := serving.Degradation(r)
		fmt.Printf("%-22s %8.1f %8.1f %8.1f %8.1f %11.3f %4d/%-4d  %v\n",
			r.PolicyName, s.P50, s.P95, s.P99, s.Max, r.MeanLevel,
			rep.FailedSwitches, rep.SwitchAttempts, serving.SortedModelShare(r))
	}
	p95b := histFor(cmp.Baseline).P95
	p95s := histFor(cmp.Switching).P95
	p95o := histFor(cmp.ScaleOut).P95
	fmt.Printf("\np95 reduction vs baseline: switching %.1fx, scale-out %.2fx\n", p95b/p95s, p95b/p95o)
	if *switchFail > 0 {
		rep := serving.Degradation(cmp.Switching)
		fmt.Printf("switching degraded gracefully: %d/%d switches failed (%.0f%%), requests kept serving on the deployed model\n",
			rep.FailedSwitches, rep.SwitchAttempts, 100*rep.FailureShare)
	}
	if *metrics {
		out, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "servesim:", err)
			os.Exit(1)
		}
		fmt.Printf("\n%s\n", out)
	}
	if *trace {
		fmt.Printf("\nspans:\n%s", o.Tracer().TreeString())
	}
}
