package cluster

import (
	"context"
	"strings"
	"testing"
	"time"

	"sommelier/internal/faults"
	"sommelier/internal/obs"
	"sommelier/internal/serving"
)

func testClasses() []Class {
	return []Class{
		{Name: "gold", Weight: 0.2, TargetMS: 20},
		{Name: "silver", Weight: 0.3, TargetMS: 60},
		{Name: "batch", Weight: 0.5},
	}
}

func testCandidates() []serving.ModelChoice {
	return []serving.ModelChoice{
		{ID: "flagship", ServiceMS: 10, Level: 1.0},
		{ID: "mid", ServiceMS: 6, Level: 0.9},
		{ID: "small", ServiceMS: 3, Level: 0.8},
	}
}

func switchingFactory(t *testing.T) func() serving.Policy {
	t.Helper()
	return func() serving.Policy {
		p, err := serving.NewSwitchingPolicy(testCandidates(), 4)
		if err != nil {
			t.Fatalf("NewSwitchingPolicy: %v", err)
		}
		return p
	}
}

func runOnce(t *testing.T, instances int, mkRouter func() Router) *Result {
	t.Helper()
	sched := faults.NewSchedule(99)
	sched.Set(InstanceTarget(0), faults.Kill(50, 80), faults.Slow(200, 220, 15*time.Millisecond))
	sched.Set(SwitchTarget(1), faults.Flake(0, 0, 0.5))
	src, err := NewGenerator(GeneratorConfig{
		Requests:      600,
		MeanArrivalMS: 4,
		GammaShape:    0.7,
		BurstEvery:    100,
		BurstLen:      20,
		BurstFactor:   4,
		Classes:       testClasses(),
		Series:        5,
		ZipfS:         1.1,
		Seed:          42,
	})
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	sim, err := New(
		WithInstances(instances),
		WithPolicy(switchingFactory(t)),
		WithRouter(mkRouter()),
		WithAdmission(NewTokenBucket(400, 50)),
		WithClasses(testClasses()...),
		WithFaultSchedule(sched),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := sim.Run(context.Background(), src)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// TestDeterminism is the tentpole's acceptance assertion: two runs of
// the same seeded scenario — fault schedule, bursty Gamma arrivals,
// Zipf series, token bucket — render byte-identical summaries at every
// instance count.
func TestDeterminism(t *testing.T) {
	for _, instances := range []int{1, 2, 4, 8} {
		for _, mk := range []func() Router{NewRoundRobin, NewLeastLoaded, func() Router {
			r, err := AffinityRouter(instances)
			if err != nil {
				t.Fatalf("AffinityRouter: %v", err)
			}
			return r
		}} {
			a := runOnce(t, instances, mk)
			b := runOnce(t, instances, mk)
			if a.Summary() != b.Summary() {
				t.Errorf("instances=%d router=%s: summaries differ:\n--- a ---\n%s--- b ---\n%s",
					instances, a.Router, a.Summary(), b.Summary())
			}
		}
	}
}

func TestResultShape(t *testing.T) {
	res := runOnce(t, 4, NewLeastLoaded)
	if res.Requests != 600 {
		t.Fatalf("requests = %d, want 600", res.Requests)
	}
	if res.Instances != 4 {
		t.Fatalf("instances = %d, want 4", res.Instances)
	}
	if got := res.Requests - res.Rejected - res.Failed; got <= 0 {
		t.Fatalf("no requests served (rejected=%d failed=%d)", res.Rejected, res.Failed)
	}
	if len(res.Classes) != 3 {
		t.Fatalf("classes = %d, want 3", len(res.Classes))
	}
	for i := 1; i < len(res.Classes); i++ {
		if res.Classes[i-1].Class >= res.Classes[i].Class {
			t.Fatalf("classes not sorted: %q before %q", res.Classes[i-1].Class, res.Classes[i].Class)
		}
	}
	var served int64
	for _, c := range res.Classes {
		served += c.Served
		if c.Arrived != c.Rejected+c.Failed+c.Served {
			t.Errorf("class %s: arrived %d != rejected %d + failed %d + served %d",
				c.Class, c.Arrived, c.Rejected, c.Failed, c.Served)
		}
		if c.Served > 0 && (c.P95 < c.P50 || c.P99 < c.P95) {
			t.Errorf("class %s: percentiles out of order p50=%v p95=%v p99=%v", c.Class, c.P50, c.P95, c.P99)
		}
	}
	if served != res.Requests-res.Rejected-res.Failed {
		t.Fatalf("served sum %d != requests-rejected-failed %d", served, res.Requests-res.Rejected-res.Failed)
	}
	if res.Fairness <= 0 || res.Fairness > 1 {
		t.Fatalf("fairness = %v outside (0,1]", res.Fairness)
	}
}

// TestSingleInstanceMatchesServing pins the cluster simulator to the
// single-server experiment it generalizes: one instance, no faults, no
// admission, identical arrival stream → per-request latencies match
// serving.Simulator exactly.
func TestSingleInstanceMatchesServing(t *testing.T) {
	w := serving.Workload{Requests: 400, MeanArrivalMS: 5, Seed: 7}
	p1, err := serving.NewSwitchingPolicy(testCandidates(), 4)
	if err != nil {
		t.Fatalf("policy: %v", err)
	}
	single, err := serving.NewSimulator(serving.WithPolicy(p1))
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	want, err := single.Run(context.Background(), w)
	if err != nil {
		t.Fatalf("serving run: %v", err)
	}

	src := replaySource{arrivals: servingArrivals(t, w)}
	sim, err := New(WithPolicy(switchingFactory(t)))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	got, err := sim.Run(context.Background(), &src)
	if err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	if got.Requests != int64(len(want.Latencies)) {
		t.Fatalf("requests %d != %d", got.Requests, len(want.Latencies))
	}
	if len(got.Classes) != 1 {
		t.Fatalf("classes = %d, want 1", len(got.Classes))
	}
	wantSum := want.Summary()
	c := got.Classes[0]
	if c.P50 != wantSum.P50 || c.P99 != wantSum.P99 || c.Max != wantSum.MaxV {
		t.Fatalf("latency percentiles diverge from single-server sim: got p50=%v p99=%v max=%v want p50=%v p99=%v max=%v",
			c.P50, c.P99, c.Max, wantSum.P50, wantSum.P99, wantSum.MaxV)
	}
	if got.SwitchAttempts != int64(want.SwitchAttempts) {
		t.Fatalf("switch attempts %d != %d", got.SwitchAttempts, want.SwitchAttempts)
	}
}

// servingArrivals reproduces the single-server simulator's arrival
// times: the same exponential stream the serving package documents
// (Workload.Seed), through its exported Arrivals.
func servingArrivals(t *testing.T, w serving.Workload) []float64 {
	t.Helper()
	return serving.Arrivals(w)
}

// replaySource replays precomputed arrival times as class "default".
type replaySource struct {
	arrivals []float64
	next     int
}

func (r *replaySource) Name() string { return "replay" }
func (r *replaySource) Next() (Request, bool) {
	if r.next >= len(r.arrivals) {
		return Request{}, false
	}
	req := Request{Seq: int64(r.next), ArriveMS: r.arrivals[r.next], Class: "default"}
	r.next++
	return req, true
}

func TestFailoverOnKilledInstance(t *testing.T) {
	sched := faults.NewSchedule(1)
	sched.Set(InstanceTarget(0), faults.Kill(0, 1<<30))
	src := &replaySource{arrivals: []float64{0, 10, 20, 30}}
	sim, err := New(
		WithInstances(2),
		WithPolicy(func() serving.Policy { return serving.FixedPolicy{Model: testCandidates()[0]} }),
		WithRouter(NewRoundRobin()),
		WithFaultSchedule(sched),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := sim.Run(context.Background(), src)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Failed != 0 {
		t.Fatalf("failed = %d, want 0 (instance 1 should absorb)", res.Failed)
	}
	// Round-robin sends requests 0 and 2 to the killed instance 0; both
	// must fail over to instance 1.
	if res.Failovers != 2 {
		t.Fatalf("failovers = %d, want 2", res.Failovers)
	}
}

func TestAllInstancesDead(t *testing.T) {
	sched := faults.NewSchedule(1)
	sched.Set(InstanceTarget(0), faults.Kill(0, 1<<30))
	sched.Set(InstanceTarget(1), faults.Kill(0, 1<<30))
	src := &replaySource{arrivals: []float64{0, 5}}
	sim, err := New(
		WithInstances(2),
		WithPolicy(func() serving.Policy { return serving.FixedPolicy{Model: testCandidates()[0]} }),
		WithFaultSchedule(sched),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := sim.Run(context.Background(), src)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Failed != 2 || res.Failovers != 0 {
		t.Fatalf("failed=%d failovers=%d, want failed=2 failovers=0", res.Failed, res.Failovers)
	}
	for _, c := range res.Classes {
		if c.Served != 0 {
			t.Fatalf("class %s served %d requests on a dead cluster", c.Class, c.Served)
		}
	}
}

func TestSlowWindowAddsLatency(t *testing.T) {
	src1 := &replaySource{arrivals: []float64{0}}
	src2 := &replaySource{arrivals: []float64{0}}
	mk := func(sched *faults.Schedule) *Result {
		opts := []Option{WithPolicy(func() serving.Policy { return serving.FixedPolicy{Model: testCandidates()[0]} })}
		if sched != nil {
			opts = append(opts, WithFaultSchedule(sched))
		}
		sim, err := New(opts...)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		src := src1
		if sched != nil {
			src = src2
		}
		res, err := sim.Run(context.Background(), src)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	base := mk(nil)
	sched := faults.NewSchedule(1)
	sched.Set(InstanceTarget(0), faults.Slow(0, 1<<30, 25*time.Millisecond))
	slow := mk(sched)
	wantDelta := 25.0
	if got := slow.Classes[0].Max - base.Classes[0].Max; got != wantDelta {
		t.Fatalf("slow window added %vms, want %vms", got, wantDelta)
	}
}

func TestContextCancelAborts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src, err := NewGenerator(GeneratorConfig{Requests: 100000, MeanArrivalMS: 1, Seed: 3})
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	sim, err := New(WithPolicy(switchingFactory(t)))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := sim.Run(ctx, src); err == nil {
		t.Fatal("Run with cancelled ctx succeeded, want abort")
	} else if !strings.Contains(err.Error(), "aborted") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestObserverRecordsClasses(t *testing.T) {
	o := obs.New(obs.WithClock(obs.NewTickClock(0, 1)))
	src, err := NewGenerator(GeneratorConfig{Requests: 200, MeanArrivalMS: 5, Classes: testClasses(), Seed: 11})
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	sim, err := New(WithPolicy(switchingFactory(t)), WithClasses(testClasses()...), WithObserver(o))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := sim.Run(context.Background(), src); err != nil {
		t.Fatalf("Run: %v", err)
	}
	snap := o.Snapshot()
	for _, name := range []string{"gold", "silver", "batch"} {
		if _, ok := snap.Histograms["servecluster_"+name+"_latency_ms"]; !ok {
			t.Errorf("missing histogram for class %s; have %v", name, histNames(snap))
		}
	}
	if snap.Counters["servecluster_requests_total"] != 200 {
		t.Errorf("requests counter = %d, want 200", snap.Counters["servecluster_requests_total"])
	}
}

func histNames(s obs.Snapshot) []string {
	names := make([]string, 0, len(s.Histograms))
	for n := range s.Histograms {
		names = append(names, n)
	}
	return names
}

func TestNewValidation(t *testing.T) {
	if _, err := New(); err == nil {
		t.Error("New without policy succeeded")
	}
	if _, err := New(WithPolicy(switchingFactory(t)), WithClasses(Class{Name: "a"}, Class{Name: "a"})); err == nil {
		t.Error("duplicate class accepted")
	}
	if _, err := New(WithPolicy(switchingFactory(t)), WithClasses(Class{})); err == nil {
		t.Error("empty class name accepted")
	}
	if _, err := New(WithPolicy(switchingFactory(t)), WithFailureModel(serving.FailureModel{SwitchFailProb: 2})); err == nil {
		t.Error("out-of-range switch probability accepted")
	}
}
