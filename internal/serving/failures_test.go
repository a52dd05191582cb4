package serving

import (
	"context"
	"math"
	"reflect"
	"testing"
)

func faultWorkload(seed uint64) Workload {
	return Workload{
		Requests:      4000,
		MeanArrivalMS: 10,
		BurstEvery:    200,
		BurstLen:      60,
		BurstFactor:   4,
		Seed:          seed,
	}
}

func mustSwitching(t *testing.T, step int) *SwitchingPolicy {
	t.Helper()
	sw, err := NewSwitchingPolicy(ladder(), step)
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

func TestFailureModelValidation(t *testing.T) {
	for _, p := range []float64{-0.1, 1.5} {
		if _, err := run(faultWorkload(1), WithPolicy(mustSwitching(t, 4)),
			WithFailureModel(FailureModel{SwitchFailProb: p})); err == nil {
			t.Errorf("probability %v accepted", p)
		}
		if _, err := RunComparisonContext(context.Background(), nil, faultWorkload(1), ladder(), 4,
			FailureModel{SwitchFailProb: p}); err == nil {
			t.Errorf("comparison with probability %v accepted", p)
		}
	}
}

func TestZeroProbMatchesSimulate(t *testing.T) {
	w := faultWorkload(3)
	plain, err := run(w, WithPolicy(mustSwitching(t, 4)), WithServers(2))
	if err != nil {
		t.Fatal(err)
	}
	under, err := run(w, WithPolicy(mustSwitching(t, 4)), WithServers(2), WithFailureModel(FailureModel{}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Latencies, under.Latencies) ||
		!reflect.DeepEqual(plain.ModelShare, under.ModelShare) {
		t.Fatal("zero-probability failure model changed the simulation")
	}
	if plain.FailedSwitches != 0 || under.FailedSwitches != 0 {
		t.Fatal("failed switches reported without a failure model")
	}
	if plain.SwitchAttempts == 0 {
		t.Fatal("bursty workload never attempted a switch — test exercises nothing")
	}
}

func TestFailureModelDeterministic(t *testing.T) {
	fm := FailureModel{SwitchFailProb: 0.4, Seed: 11}
	a, err := run(faultWorkload(5), WithPolicy(mustSwitching(t, 4)), WithFailureModel(fm))
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(faultWorkload(5), WithPolicy(mustSwitching(t, 4)), WithFailureModel(fm))
	if err != nil {
		t.Fatal(err)
	}
	if a.FailedSwitches != b.FailedSwitches || a.SwitchAttempts != b.SwitchAttempts {
		t.Fatalf("runs diverged: %d/%d vs %d/%d failed/attempted",
			a.FailedSwitches, a.SwitchAttempts, b.FailedSwitches, b.SwitchAttempts)
	}
	if !reflect.DeepEqual(a.Latencies, b.Latencies) {
		t.Fatal("latency traces diverged under identical seeds")
	}
	if a.FailedSwitches == 0 {
		t.Fatal("0.4 failure probability never failed a switch")
	}
	// A different failure seed shifts which switches fail.
	c, err := run(faultWorkload(5), WithPolicy(mustSwitching(t, 4)),
		WithFailureModel(FailureModel{SwitchFailProb: 0.4, Seed: 12}))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Latencies, c.Latencies) && a.FailedSwitches == c.FailedSwitches {
		t.Fatal("different failure seeds produced identical runs")
	}
}

// flipPolicy alternates between two models every request, maximizing
// switch pressure.
type flipPolicy struct {
	models [2]ModelChoice
	n      int
}

func (p *flipPolicy) Choose(int) ModelChoice {
	p.n++
	return p.models[p.n%2]
}
func (p *flipPolicy) Name() string { return "flip" }

func TestCertainFailurePinsFirstModel(t *testing.T) {
	w := Workload{Requests: 500, MeanArrivalMS: 10, Seed: 2}
	models := [2]ModelChoice{
		{ID: "a", ServiceMS: 5, Level: 1.0},
		{ID: "b", ServiceMS: 5, Level: 0.9},
	}
	res, err := run(w, WithPolicy(&flipPolicy{models: models}),
		WithFailureModel(FailureModel{SwitchFailProb: 1, Seed: 3}))
	if err != nil {
		t.Fatal(err)
	}
	// The first choice deploys; every later switch attempt fails, so a
	// single model serves everything.
	if len(res.ModelShare) != 1 {
		t.Fatalf("model share = %v, want one pinned model", res.ModelShare)
	}
	if res.SwitchAttempts == 0 || res.FailedSwitches != res.SwitchAttempts {
		t.Fatalf("failed %d of %d attempts, want all", res.FailedSwitches, res.SwitchAttempts)
	}
	total := 0
	for _, n := range res.ModelShare {
		total += n
	}
	if total != w.Requests {
		t.Fatalf("served %d requests, want %d — failed switches must not drop requests", total, w.Requests)
	}
}

func TestComparisonWithFailuresReports(t *testing.T) {
	fm := FailureModel{SwitchFailProb: 0.3, Seed: 7}
	cmp, err := RunComparisonContext(context.Background(), nil, faultWorkload(9), ladder(), 4, fm)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Baseline.SwitchAttempts != 0 || cmp.ScaleOut.SwitchAttempts != 0 {
		t.Fatal("non-switching configurations report switch attempts")
	}
	if cmp.Switching.SwitchAttempts == 0 || cmp.Switching.FailedSwitches == 0 {
		t.Fatalf("switching run: %d/%d failed/attempted, want both > 0",
			cmp.Switching.FailedSwitches, cmp.Switching.SwitchAttempts)
	}
	rep := Degradation(cmp.Switching)
	if rep.FailureShare <= 0 || rep.FailureShare >= 1 {
		t.Fatalf("failure share = %v", rep.FailureShare)
	}
	if math.Abs(rep.FailureShare-0.3) > 0.15 {
		t.Fatalf("failure share %v far from configured 0.3", rep.FailureShare)
	}
	if rep.Summary.P99 <= 0 {
		t.Fatal("degradation report lost the latency summary")
	}
	// Failed switches leave the old (often slower) model serving, so
	// the faulty run cannot beat the fault-free one at the median by
	// any margin — sanity-check the direction of the effect.
	clean, err := RunComparisonContext(context.Background(), nil, faultWorkload(9), ladder(), 4, FailureModel{})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Switching.Summary().P50+1e-9 < clean.Switching.Summary().P50 {
		t.Fatalf("faults improved p50: %v < %v",
			cmp.Switching.Summary().P50, clean.Switching.Summary().P50)
	}
}
