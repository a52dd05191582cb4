// Package serving is optcheck's golden input for the serving package's
// frozen legacy structs: Workload and FailureModel are kept only so
// pre-options callers compile, so new knobs belong on the Simulator's
// functional options, never on these structs. The fixture lives at the
// real import path's leaf name, so it is
// also covered by every package-scoped analyzer (detcheck treats
// "serving" as determinism-critical) — it must stay clean for all of
// them.
package serving

// Workload mirrors the real frozen struct: the original fields are
// allowed, anything newer is a finding.
type Workload struct {
	Requests      int
	MeanArrivalMS float64
	BurstEvery    int
	BurstLen      int
	BurstFactor   float64
	Seed          uint64

	JitterMS float64 // want `field JitterMS added to the frozen legacy Workload struct`
}

// FailureModel mirrors the real frozen struct.
type FailureModel struct {
	SwitchFailProb float64
	Seed           uint64

	RetryBudget int // want `field RetryBudget added to the frozen legacy FailureModel struct`
}

// Result is not frozen; its fields are free.
type Result struct {
	Latencies []float64
	Anything  int
}
