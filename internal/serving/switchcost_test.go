package serving

import (
	"testing"

	"sommelier/internal/stats"
)

// flipFlopPolicy alternates its desired model every call — the worst
// case for switch overhead.
type flipFlopPolicy struct {
	a, b ModelChoice
	n    int
}

func (p *flipFlopPolicy) Choose(int) ModelChoice {
	p.n++
	if p.n%2 == 0 {
		return p.a
	}
	return p.b
}
func (p *flipFlopPolicy) Name() string { return "flipflop" }

func TestSwitchCostValidation(t *testing.T) {
	if _, err := NewSwitchCostPolicy(nil, 1, false, 0); err == nil {
		t.Fatal("expected nil-inner error")
	}
	if _, err := NewSwitchCostPolicy(FixedPolicy{}, -1, false, 0); err == nil {
		t.Fatal("expected negative-swap error")
	}
}

func TestSwitchCostFixedPolicyNeverPays(t *testing.T) {
	inner := FixedPolicy{Model: ModelChoice{ID: "m", ServiceMS: 10, Level: 1}}
	p, err := NewSwitchCostPolicy(inner, 100, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if got := p.Choose(i); got.ServiceMS != 10 {
			t.Fatalf("fixed policy paid a swap: %+v", got)
		}
	}
}

func TestForegroundSwapChargesOnce(t *testing.T) {
	a := ModelChoice{ID: "a", ServiceMS: 10}
	b := ModelChoice{ID: "b", ServiceMS: 4}
	sw, _ := NewSwitchingPolicy([]ModelChoice{a, b}, 5)
	p, err := NewSwitchCostPolicy(sw, 30, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Choose(0); got.ID != "a" || got.ServiceMS != 10 {
		t.Fatalf("first choice %+v", got)
	}
	// Queue grows past the threshold: switch to b, paying the swap on
	// the next served request.
	got := p.Choose(10)
	if got.ID != "b" || got.ServiceMS != 4+30 {
		t.Fatalf("switch request should pay the swap: %+v", got)
	}
	if got := p.Choose(10); got.ServiceMS != 4 {
		t.Fatalf("subsequent requests should not pay again: %+v", got)
	}
}

func TestBackgroundSwapHidesPenalty(t *testing.T) {
	a := ModelChoice{ID: "a", ServiceMS: 10}
	b := ModelChoice{ID: "b", ServiceMS: 4}
	sw, _ := NewSwitchingPolicy([]ModelChoice{a, b}, 5)
	p, err := NewSwitchCostPolicy(sw, 30, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Choose(0)
	// The switching request is still served by the OLD model at its
	// normal cost; the new model takes over afterwards.
	if got := p.Choose(10); got.ID != "a" || got.ServiceMS != 10 {
		t.Fatalf("background switch should serve the old model: %+v", got)
	}
	if got := p.Choose(10); got.ID != "b" || got.ServiceMS != 4 {
		t.Fatalf("after background load the new model serves: %+v", got)
	}
}

func TestHysteresisDampsFlapping(t *testing.T) {
	a := ModelChoice{ID: "a", ServiceMS: 10}
	b := ModelChoice{ID: "b", ServiceMS: 4}
	flip := &flipFlopPolicy{a: a, b: b}
	p, err := NewSwitchCostPolicy(flip, 30, false, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The inner policy alternates each call, so no candidate ever hits
	// a streak of 4: the wrapper must never switch.
	first := p.Choose(0).ID
	for i := 0; i < 40; i++ {
		if got := p.Choose(0); got.ID != first || got.ServiceMS > 10 {
			t.Fatalf("hysteresis failed at %d: %+v", i, got)
		}
	}
}

func TestHysteresisEventuallySwitches(t *testing.T) {
	a := ModelChoice{ID: "a", ServiceMS: 10}
	b := ModelChoice{ID: "b", ServiceMS: 4}
	sw, _ := NewSwitchingPolicy([]ModelChoice{a, b}, 5)
	p, err := NewSwitchCostPolicy(sw, 0, false, 2)
	if err != nil {
		t.Fatal(err)
	}
	p.Choose(0)
	ids := []string{}
	for i := 0; i < 5; i++ {
		ids = append(ids, p.Choose(10).ID)
	}
	// Streak must exceed hysteresis (2), so the first two heavy-load
	// picks stay on a, the third switches.
	if ids[0] != "a" || ids[1] != "a" || ids[2] != "b" {
		t.Fatalf("hysteresis switch sequence = %v", ids)
	}
}

func TestSwapCostRaisesTailUnderFlapping(t *testing.T) {
	// A workload oscillating around the switch threshold: foreground
	// swaps without hysteresis must hurt the tail; hysteresis must
	// recover most of it.
	candidates := ladder()
	w := heavyWorkload(3)
	run := func(swap float64, hysteresis int) float64 {
		sw, err := NewSwitchingPolicy(candidates, 4)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewSwitchCostPolicy(sw, swap, false, hysteresis)
		if err != nil {
			t.Fatal(err)
		}
		r, err := run(w, WithPolicy(p))
		if err != nil {
			t.Fatal(err)
		}
		return stats.Percentile(r.Latencies, 90)
	}
	free := run(0, 0)
	costly := run(100, 0)
	damped := run(100, 2)
	if costly <= free {
		t.Fatalf("swap cost had no effect: free %.1f vs costly %.1f", free, costly)
	}
	// With swaps this expensive, a little hysteresis pays for its slower
	// adaptation by eliminating repeated swaps.
	if damped >= costly {
		t.Fatalf("hysteresis did not help: damped %.1f vs costly %.1f", damped, costly)
	}
}

func TestBackgroundBeatsForegroundUnderLoad(t *testing.T) {
	candidates := ladder()
	w := heavyWorkload(5)
	run := func(background bool) float64 {
		sw, err := NewSwitchingPolicy(candidates, 4)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewSwitchCostPolicy(sw, 25, background, 0)
		if err != nil {
			t.Fatal(err)
		}
		r, err := run(w, WithPolicy(p))
		if err != nil {
			t.Fatal(err)
		}
		return stats.Percentile(r.Latencies, 99)
	}
	fg := run(false)
	bg := run(true)
	if bg >= fg {
		t.Fatalf("background swapping should beat foreground: bg %.1f vs fg %.1f", bg, fg)
	}
}

func TestSwitchCostPolicyName(t *testing.T) {
	sw, _ := NewSwitchingPolicy(ladder(), 4)
	fg, _ := NewSwitchCostPolicy(sw, 1, false, 0)
	bg, _ := NewSwitchCostPolicy(sw, 1, true, 0)
	if fg.Name() != "sommelier-switching+fg-swap" || bg.Name() != "sommelier-switching+bg-swap" {
		t.Fatalf("names: %q / %q", fg.Name(), bg.Name())
	}
}
