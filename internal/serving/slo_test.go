package serving

import "testing"

func TestNewSLOPolicyValidation(t *testing.T) {
	if _, err := NewSLOPolicy(nil, 10); err == nil {
		t.Fatal("expected no-candidates error")
	}
	if _, err := NewSLOPolicy(ladder(), 0); err == nil {
		t.Fatal("expected bad-target error")
	}
}

func TestSLOPolicySortsByLevel(t *testing.T) {
	shuffled := []ModelChoice{
		{ID: "compact", ServiceMS: 2, Level: 0.94},
		{ID: "flagship", ServiceMS: 20, Level: 1.0},
		{ID: "mid", ServiceMS: 8, Level: 0.97},
	}
	p, err := NewSLOPolicy(shuffled, 100)
	if err != nil {
		t.Fatal(err)
	}
	if p.Candidates[0].ID != "flagship" {
		t.Fatalf("candidates not sorted by level: %+v", p.Candidates)
	}
}

func TestSLOPolicyIdleServesFlagship(t *testing.T) {
	p, err := NewSLOPolicy(ladder(), 30)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Choose(0); got.ID != "flagship" {
		t.Fatalf("idle choice = %s", got.ID)
	}
}

func TestSLOPolicyDowngradesWhenDeadlineThreatened(t *testing.T) {
	// Target 30ms, flagship 20ms: with one request queued, flagship
	// prediction = 20 (drain) + 20 = 40 > 30 → downgrade to mid
	// (20 + 8 = 28 <= 30).
	p, err := NewSLOPolicy(ladder(), 30)
	if err != nil {
		t.Fatal(err)
	}
	p.Choose(0)
	if got := p.Choose(1); got.ID != "mid" {
		t.Fatalf("1-deep queue choice = %s", got.ID)
	}
}

func TestSLOPolicyFallsBackToCheapest(t *testing.T) {
	p, err := NewSLOPolicy(ladder(), 5)
	if err != nil {
		t.Fatal(err)
	}
	// Deep queue: nothing meets 5ms; the cheapest model serves.
	if got := p.Choose(50); got.ID != "compact" {
		t.Fatalf("overloaded choice = %s", got.ID)
	}
}

func TestSLOPolicyImprovesAttainment(t *testing.T) {
	w := heavyWorkload(11)
	const target = 60
	fixed, err := run(w, WithPolicy(FixedPolicy{Model: ladder()[0]}))
	if err != nil {
		t.Fatal(err)
	}
	slo, err := NewSLOPolicy(ladder(), target)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := run(w, WithPolicy(slo))
	if err != nil {
		t.Fatal(err)
	}
	fixedAtt := SLOAttainment(fixed.Latencies, target)
	adaptAtt := SLOAttainment(adaptive.Latencies, target)
	// The fixed flagship is overloaded in this regime (attainment a few
	// percent); the SLO policy must recover most requests. Requests
	// arriving during a burst's downgrade transition still wait behind
	// flagship-priced work, so perfect attainment is not achievable.
	if adaptAtt < fixedAtt+0.4 {
		t.Fatalf("SLO policy attainment %.2f should far exceed fixed %.2f", adaptAtt, fixedAtt)
	}
	if adaptAtt < 0.55 {
		t.Fatalf("SLO attainment too low: %.2f", adaptAtt)
	}
	// Quality degrades only when needed.
	if adaptive.MeanLevel < 0.9 {
		t.Fatalf("mean level %.3f", adaptive.MeanLevel)
	}
}

func TestSLOAttainmentEdgeCases(t *testing.T) {
	if SLOAttainment(nil, 10) != 0 {
		t.Fatal("empty attainment should be 0")
	}
	if got := SLOAttainment([]float64{5, 15}, 10); got != 0.5 {
		t.Fatalf("attainment = %g", got)
	}
}
