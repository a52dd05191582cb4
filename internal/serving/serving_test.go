package serving

import (
	"context"
	"math"
	"testing"

	"sommelier/internal/stats"
)

func ladder() []ModelChoice {
	return []ModelChoice{
		{ID: "flagship", ServiceMS: 20, Level: 1.0},
		{ID: "mid", ServiceMS: 8, Level: 0.97},
		{ID: "compact", ServiceMS: 2, Level: 0.94},
	}
}

func heavyWorkload(seed uint64) Workload {
	return Workload{
		Requests:      4000,
		MeanArrivalMS: 22,
		BurstEvery:    200,
		BurstLen:      60,
		BurstFactor:   8,
		Seed:          seed,
	}
}

// run executes w on a simulator built from opts.
func run(w Workload, opts ...Option) (Result, error) {
	sim, err := NewSimulator(opts...)
	if err != nil {
		return Result{}, err
	}
	return sim.Run(context.Background(), w)
}

func TestArrivalsMonotone(t *testing.T) {
	w := heavyWorkload(1)
	arr := arrivals(w)
	if len(arr) != w.Requests {
		t.Fatalf("arrivals = %d", len(arr))
	}
	for i := 1; i < len(arr); i++ {
		if arr[i] < arr[i-1] {
			t.Fatal("arrival times not monotone")
		}
	}
}

func TestArrivalsBurstsCompressGaps(t *testing.T) {
	base := Workload{Requests: 1000, MeanArrivalMS: 10, Seed: 2}
	bursty := base
	bursty.BurstEvery, bursty.BurstLen, bursty.BurstFactor = 100, 50, 10
	a := arrivals(base)
	b := arrivals(bursty)
	if b[len(b)-1] >= a[len(a)-1] {
		t.Fatal("bursts should compress the total span")
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := run(Workload{}, WithPolicy(FixedPolicy{})); err == nil {
		t.Fatal("expected workload validation error")
	}
	if _, err := RunComparisonContext(context.Background(), nil, heavyWorkload(1), nil, 4, FailureModel{}); err == nil {
		t.Fatal("expected no-candidates error")
	}
}

func TestFixedPolicyUnderLightLoadHasServiceLatency(t *testing.T) {
	w := Workload{Requests: 500, MeanArrivalMS: 1000, Seed: 3}
	r, err := run(w, WithPolicy(FixedPolicy{Model: ladder()[0]}))
	if err != nil {
		t.Fatal(err)
	}
	// With huge mean gaps queueing is rare (exponential gaps can still
	// occasionally collide): latency is never below the service time
	// and almost always equals it.
	atService := 0
	for _, l := range r.Latencies {
		if l < 20-1e-9 {
			t.Fatalf("latency %g below service time", l)
		}
		if math.Abs(l-20) < 1e-9 {
			atService++
		}
	}
	if float64(atService) < 0.95*float64(len(r.Latencies)) {
		t.Fatalf("only %d/%d requests unqueued under light load", atService, len(r.Latencies))
	}
}

func TestSwitchingStepsDownUnderLoad(t *testing.T) {
	p, err := NewSwitchingPolicy(ladder(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Choose(0); got.ID != "flagship" {
		t.Fatalf("idle choice = %s", got.ID)
	}
	if got := p.Choose(5); got.ID != "mid" {
		t.Fatalf("mid-load choice = %s", got.ID)
	}
	if got := p.Choose(50); got.ID != "compact" {
		t.Fatalf("heavy-load choice = %s", got.ID)
	}
}

func TestSwitchingReducesTailLatency(t *testing.T) {
	w := heavyWorkload(7)
	cmp, err := RunComparisonContext(context.Background(), nil, w, ladder(), 4, FailureModel{})
	if err != nil {
		t.Fatal(err)
	}
	p90base := stats.Percentile(cmp.Baseline.Latencies, 90)
	p90switch := stats.Percentile(cmp.Switching.Latencies, 90)
	p90scale := stats.Percentile(cmp.ScaleOut.Latencies, 90)
	p90comb := stats.Percentile(cmp.Combined.Latencies, 90)

	// The paper's shape: switching wins big (≈6×); scale-out helps far
	// less; combined is at least as good as switching.
	if p90switch*2 > p90base {
		t.Fatalf("switching should cut p90 by >2x: base=%.1f switch=%.1f", p90base, p90switch)
	}
	if p90scale <= p90switch {
		t.Fatalf("scale-out alone (%.1f) should trail switching (%.1f)", p90scale, p90switch)
	}
	if p90comb > p90switch*1.05 {
		t.Fatalf("combined (%.1f) should not regress vs switching (%.1f)", p90comb, p90switch)
	}
	// Accuracy cost is modest: mean level stays high.
	if cmp.Switching.MeanLevel < 0.9 {
		t.Fatalf("switching mean level = %.3f", cmp.Switching.MeanLevel)
	}
	// Multiple models actually served.
	if len(cmp.Switching.ModelShare) < 2 {
		t.Fatalf("switching used %d models", len(cmp.Switching.ModelShare))
	}
}

func TestScaleOutBeatsBaseline(t *testing.T) {
	w := heavyWorkload(9)
	flagship := ladder()[0]
	base, err := run(w, WithPolicy(FixedPolicy{Model: flagship}))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(WithPolicy(FixedPolicy{Model: flagship}))
	if err != nil {
		t.Fatal(err)
	}
	scale, err := sim.RunRacing(context.Background(), w, flagship)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Percentile(scale.Latencies, 90) >= stats.Percentile(base.Latencies, 90) {
		t.Fatal("scale-out should improve p90 over one server")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	w := heavyWorkload(4)
	a, err := run(w, WithPolicy(FixedPolicy{Model: ladder()[0]}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(w, WithPolicy(FixedPolicy{Model: ladder()[0]}))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Latencies {
		if a.Latencies[i] != b.Latencies[i] {
			t.Fatal("simulation not deterministic")
		}
	}
}

func TestMoreServersNeverWorse(t *testing.T) {
	w := heavyWorkload(5)
	p, _ := NewSwitchingPolicy(ladder(), 4)
	one, err := run(w, WithPolicy(p))
	if err != nil {
		t.Fatal(err)
	}
	four, err := run(w, WithPolicy(p), WithServers(4))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Percentile(four.Latencies, 99) > stats.Percentile(one.Latencies, 99) {
		t.Fatal("adding servers worsened p99")
	}
}

func TestSortedModelShare(t *testing.T) {
	r := Result{ModelShare: map[string]int{"b": 2, "a": 1}}
	got := SortedModelShare(r)
	if len(got) != 2 || got[0] != "a:1" || got[1] != "b:2" {
		t.Fatalf("SortedModelShare = %v", got)
	}
}
