package serving

import (
	"context"
	"fmt"

	"sommelier/internal/obs"
	"sommelier/internal/stats"
)

// FailureModel injects model-switch failures into the simulator, so the
// Figure 9(c) configurations can be re-examined under faults: in a real
// deployment a switch means loading new weights onto a serving node,
// which can fail (hub unreachable, node out of memory, load timeout).
// The paper's §7.1 case study assumes switches always succeed; this
// model relaxes that. A failed switch is not a failed request — the
// server keeps serving with its previously deployed model and the
// simulator reports the failed-switch count alongside tail latency.
//
// The failure sequence is drawn from faults.Schedule per-target
// streams (one SwitchTarget per server), the same machinery the
// cluster chaos suite replays from: a flat SwitchFailProb becomes an
// always-open Flake window per server, and WithFaultSchedule exposes
// the full windowed form (kill switches for ops [a,b), slow them, …).
// The sequence a server sees depends only on its own switch-attempt
// count, never on cross-server interleaving.
//
// The struct is frozen (sommlint optcheck): richer fault shapes are
// expressed through WithFaultSchedule, not new fields here.
type FailureModel struct {
	// SwitchFailProb is the probability in [0,1] that a model switch
	// attempt fails, leaving the old model deployed.
	SwitchFailProb float64
	// Seed drives the failure sequence deterministically.
	Seed uint64
}

func (fm FailureModel) validate() error {
	if fm.SwitchFailProb < 0 || fm.SwitchFailProb > 1 {
		return fmt.Errorf("serving: switch failure probability %v outside [0,1]", fm.SwitchFailProb)
	}
	return nil
}

// RunComparisonContext executes the Figure 9(c) comparison — baseline,
// scale-out, switching, switching+scale-out on the same workload — with
// the switching configurations subjected to the failure model. The
// fixed baseline and the scale-out configuration never switch models,
// so they are unaffected by construction. A non-nil observer receives
// every configuration's result (per-policy latency histograms and
// switch counters), so callers can read percentiles from the unified
// snapshot rather than recomputing them from raw latencies.
func RunComparisonContext(ctx context.Context, o *obs.Observer, w Workload,
	candidates []ModelChoice, switchStep int, fm FailureModel) (Comparison, error) {
	if len(candidates) == 0 {
		return Comparison{}, fmt.Errorf("serving: no candidates")
	}
	flagship := candidates[0]
	var c Comparison

	base, err := NewSimulator(WithPolicy(FixedPolicy{Model: flagship}), WithObserver(o))
	if err != nil {
		return c, err
	}
	if c.Baseline, err = base.Run(ctx, w); err != nil {
		return c, err
	}
	if c.ScaleOut, err = base.RunRacing(ctx, w, flagship); err != nil {
		return c, err
	}

	sw1, err := NewSwitchingPolicy(candidates, switchStep)
	if err != nil {
		return c, err
	}
	single, err := NewSimulator(WithPolicy(sw1), WithFailureModel(fm), WithObserver(o))
	if err != nil {
		return c, err
	}
	if c.Switching, err = single.Run(ctx, w); err != nil {
		return c, err
	}

	// The combined run is observed by hand: its result is renamed after
	// the run, and the histogram key must carry the renamed policy.
	sw2, err := NewSwitchingPolicy(candidates, switchStep)
	if err != nil {
		return c, err
	}
	double, err := NewSimulator(WithPolicy(sw2), WithServers(2), WithFailureModel(fm))
	if err != nil {
		return c, err
	}
	if c.Combined, err = double.Run(ctx, w); err != nil {
		return c, err
	}
	c.Combined.PolicyName = "switching+scale-out"
	ObserveResult(o, c.Combined)
	return c, nil
}

// DegradationReport summarizes how a result behaved under faults:
// latency percentiles plus switch-failure counts, for Fig. 9(c)-style
// runs re-examined under a failure model.
type DegradationReport struct {
	PolicyName     string
	Summary        stats.Summary
	SwitchAttempts int
	FailedSwitches int
	// FailureShare is FailedSwitches / SwitchAttempts (0 when no
	// switches were attempted).
	FailureShare float64
}

// Degradation builds the report for a result.
func Degradation(r Result) DegradationReport {
	rep := DegradationReport{
		PolicyName:     r.PolicyName,
		Summary:        r.Summary(),
		SwitchAttempts: r.SwitchAttempts,
		FailedSwitches: r.FailedSwitches,
	}
	if r.SwitchAttempts > 0 {
		rep.FailureShare = float64(r.FailedSwitches) / float64(r.SwitchAttempts)
	}
	return rep
}
