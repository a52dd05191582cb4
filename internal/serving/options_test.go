package serving

import (
	"context"
	"reflect"
	"testing"
	"time"

	"sommelier/internal/faults"
	"sommelier/internal/obs"
)

func optCandidates() []ModelChoice {
	return []ModelChoice{
		{ID: "flagship", ServiceMS: 10, Level: 1.0},
		{ID: "small", ServiceMS: 4, Level: 0.85},
	}
}

func TestNewSimulatorValidation(t *testing.T) {
	if _, err := NewSimulator(); err == nil {
		t.Error("NewSimulator without policy succeeded")
	}
	if _, err := NewSimulator(WithPolicy(FixedPolicy{Model: optCandidates()[0]}),
		WithFailureModel(FailureModel{SwitchFailProb: 1.5})); err == nil {
		t.Error("out-of-range failure probability accepted")
	}
	sim, err := NewSimulator(WithPolicy(FixedPolicy{Model: optCandidates()[0]}), WithServers(-3))
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	if sim.cfg.servers != 1 {
		t.Fatalf("non-positive servers = %d, want clamp to 1", sim.cfg.servers)
	}
}

// TestWithSeedFallback checks the base seed feeds both the workload
// arrivals (when Workload.Seed is zero) and the switch-fault schedule
// (when FailureModel.Seed is zero).
func TestWithSeedFallback(t *testing.T) {
	w := Workload{Requests: 200, MeanArrivalMS: 6} // Seed 0 → simulator seed
	fm := FailureModel{SwitchFailProb: 0.5}        // Seed 0 → simulator seed
	run := func(seed uint64) Result {
		p, err := NewSwitchingPolicy(optCandidates(), 5)
		if err != nil {
			t.Fatalf("policy: %v", err)
		}
		sim, err := NewSimulator(WithPolicy(p), WithFailureModel(fm), WithSeed(seed))
		if err != nil {
			t.Fatalf("NewSimulator: %v", err)
		}
		res, err := sim.Run(context.Background(), w)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	a, b := run(42), run(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same base seed produced different results")
	}
	c := run(43)
	if reflect.DeepEqual(a.Latencies, c.Latencies) {
		t.Fatal("different base seeds produced identical arrival streams")
	}
}

// TestWithFaultScheduleWins checks an explicit schedule overrides the
// flat probability: a schedule that kills every switch forces every
// attempt to fail even with SwitchFailProb 0.
func TestWithFaultScheduleWins(t *testing.T) {
	w := Workload{Requests: 200, MeanArrivalMS: 6, Seed: 4}
	sched := faults.NewSchedule(1)
	sched.Set(SwitchTarget(0), faults.Kill(0, 1<<30))
	p, err := NewSwitchingPolicy(optCandidates(), 5)
	if err != nil {
		t.Fatalf("policy: %v", err)
	}
	sim, err := NewSimulator(WithPolicy(p), WithFaultSchedule(sched))
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	res, err := sim.Run(context.Background(), w)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.SwitchAttempts == 0 {
		t.Fatal("workload attempted no switches; test is vacuous")
	}
	if res.FailedSwitches != res.SwitchAttempts {
		t.Fatalf("kill-all schedule: %d/%d switches failed, want all",
			res.FailedSwitches, res.SwitchAttempts)
	}
	if res.ModelShare["flagship"] != w.Requests {
		t.Fatalf("with all switches dead every request should run the first-deployed model: %v", res.ModelShare)
	}
}

// TestSlowSwitchWindow checks a Latency fault window slows the switched
// request instead of failing the switch.
func TestSlowSwitchWindow(t *testing.T) {
	w := Workload{Requests: 200, MeanArrivalMS: 6, Seed: 4} // enough backlog to trigger switches
	run := func(sched *faults.Schedule) Result {
		p, err := NewSwitchingPolicy(optCandidates(), 5)
		if err != nil {
			t.Fatalf("policy: %v", err)
		}
		opts := []Option{WithPolicy(p)}
		if sched != nil {
			opts = append(opts, WithFaultSchedule(sched))
		}
		sim, err := NewSimulator(opts...)
		if err != nil {
			t.Fatalf("NewSimulator: %v", err)
		}
		res, err := sim.Run(context.Background(), w)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	base := run(nil)
	sched := faults.NewSchedule(1)
	sched.Set(SwitchTarget(0), faults.Slow(0, 1<<30, 30*time.Millisecond))
	slow := run(sched)
	if base.SwitchAttempts == 0 {
		t.Fatal("workload attempted no switches; test is vacuous")
	}
	if slow.FailedSwitches != 0 {
		t.Fatalf("slow window failed %d switches, want 0", slow.FailedSwitches)
	}
	if slow.SwitchAttempts == 0 {
		t.Fatal("slow run attempted no switches; test is vacuous")
	}
	if slow.Summary().MaxV <= base.Summary().MaxV {
		t.Fatalf("slow switches should raise max latency: %v vs %v",
			slow.Summary().MaxV, base.Summary().MaxV)
	}
}

func TestRunObservesResult(t *testing.T) {
	o := obs.New(obs.WithClock(obs.NewTickClock(0, 1)))
	w := Workload{Requests: 100, MeanArrivalMS: 6, Seed: 2}
	sim, err := NewSimulator(WithPolicy(FixedPolicy{Model: optCandidates()[0]}), WithObserver(o))
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	if _, err := sim.Run(context.Background(), w); err != nil {
		t.Fatalf("Run: %v", err)
	}
	snap := o.Snapshot()
	if h, ok := snap.Histograms["serving_fixed_latency_ms"]; !ok || h.Count != 100 {
		t.Fatalf("latency histogram missing or short: %+v", snap.Histograms)
	}
	if _, ok := snap.Histograms["serving_run_ms"]; !ok {
		t.Fatal("run timing histogram missing")
	}
}

func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sim, err := NewSimulator(WithPolicy(FixedPolicy{Model: optCandidates()[0]}))
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	if _, err := sim.Run(ctx, Workload{Requests: 5000, MeanArrivalMS: 1, Seed: 1}); err == nil {
		t.Fatal("Run with cancelled ctx succeeded")
	}
}
