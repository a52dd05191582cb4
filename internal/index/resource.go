package index

import (
	"fmt"
	"math"
	"sort"

	"sommelier/internal/lsh"
	"sommelier/internal/resource"
)

// ResourceIndex is the §5.3 structure: an LSH table over resource-profile
// vectors (memoryMB, GFLOPs, latencyMS) supporting fast nearest-profile
// retrieval plus exact per-dimension budget filtering. It is the
// standalone reproduction the Table 3/4 and LSH-ablation experiments
// measure; the query engine does not consult it — stage 2 checks each
// semantic candidate's profile exactly (see DESIGN.md).
type ResourceIndex struct {
	lsh      *lsh.Index
	profiles map[string]resource.Profile
}

// NewResourceIndex returns an empty resource index. Profiles are hashed
// with the p-stable (Euclidean) family over log-transformed vectors:
// resource magnitudes, not directions, are what distinguish models, and
// log space turns "within a factor of k" into a fixed radius.
func NewResourceIndex(seed uint64) *ResourceIndex {
	cfg := lsh.Config{
		Family: lsh.PStable,
		Tables: 6,
		Bits:   4,
		Dim:    3,
		W:      0.8, // log-space bucket width ≈ one 2.2x magnitude band
		Seed:   seed,
	}
	idx, err := lsh.New(cfg)
	if err != nil {
		// The literal config is always valid; this is unreachable.
		panic(err)
	}
	return &ResourceIndex{lsh: idx, profiles: make(map[string]resource.Profile)}
}

// lshCenter is the fixed reference point the hashed vectors are centered
// on (log-space): ~100 MB, ~1 GFLOP, ~10 ms. Raw resource vectors are
// all-positive and span decades, so hashing them directly would pack
// every record into a handful of buckets; log-transforming and centering
// spreads directions across the hash space. The choice of center only
// affects bucket balance, never correctness (exact per-dimension checks
// always follow).
var lshCenter = [3]float64{math.Log1p(100), math.Log1p(1), math.Log1p(10)}

func lshVector(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		if x < 0 {
			x = 0
		}
		out[i] = math.Log1p(x) - lshCenter[i]
	}
	return out
}

// Len returns the number of indexed profiles.
func (r *ResourceIndex) Len() int { return len(r.profiles) }

// Insert stores the model's resource profile under its ID.
func (r *ResourceIndex) Insert(id string, p resource.Profile) error {
	if id == "" {
		return fmt.Errorf("index: resource insert needs an ID")
	}
	if err := r.lsh.Insert(id, lshVector(p.Vector())); err != nil {
		return err
	}
	r.profiles[id] = p
	return nil
}

// Profile returns the stored profile for id.
func (r *ResourceIndex) Profile(id string) (resource.Profile, bool) {
	p, ok := r.profiles[id]
	return p, ok
}

// Budget expresses absolute per-dimension upper limits. Zero-valued
// fields are unconstrained.
type Budget struct {
	MaxMemoryBytes int64
	MaxFLOPs       int64
	MaxLatencyMS   float64
}

// Satisfies reports whether profile p fits within the budget.
func (b Budget) Satisfies(p resource.Profile) bool {
	if b.MaxMemoryBytes > 0 && p.MemoryBytes > b.MaxMemoryBytes {
		return false
	}
	if b.MaxFLOPs > 0 && p.FLOPs > b.MaxFLOPs {
		return false
	}
	if b.MaxLatencyMS > 0 && p.LatencyMS > b.MaxLatencyMS {
		return false
	}
	return true
}

// probeVector is the LSH probe for a budget: a point *inside* the
// feasible region (half the limit on each constrained dimension, the
// center value on unconstrained ones), since satisfying profiles are
// dominated by the budget, not adjacent to it.
func (b Budget) probeVector() []float64 {
	raw := resource.Profile{
		MemoryBytes: b.MaxMemoryBytes / 2,
		FLOPs:       b.MaxFLOPs / 2,
		LatencyMS:   b.MaxLatencyMS / 2,
	}.Vector()
	out := lshVector(raw)
	for i, v := range raw {
		if v == 0 {
			out[i] = 0 // unconstrained: sit at the center
		}
	}
	return out
}

// Candidates returns the IDs whose profiles satisfy the budget in every
// constrained dimension, following the paper's two-phase lookup: an LSH
// probe around the constraint vector retrieves profile-similar models,
// then exact dimension checks filter them. The probe is a ball and a
// budget is a half-space, so on populations spread over decades the
// result is a subset of CandidatesExact; only when the probe finds
// nothing satisfying does it fall back to the exact scan.
func (r *ResourceIndex) Candidates(b Budget, maxDist float64) ([]string, error) {
	if b == (Budget{}) {
		// No upper bounds at all: every profile is a candidate.
		return r.CandidatesExact(b), nil
	}
	if maxDist <= 0 {
		// Default probe radius: ~2 log-space units, about one order of
		// magnitude around the probe point.
		maxDist = 2
	}
	matches, err := r.lsh.Query(b.probeVector(), maxDist)
	if err != nil {
		return nil, err
	}
	if out := r.filterByBudget(matchIDs(matches), b); len(out) > 0 {
		return out, nil
	}
	return r.CandidatesExact(b), nil
}

// CandidatesExact scans every profile — the ablation baseline.
func (r *ResourceIndex) CandidatesExact(b Budget) []string {
	ids := make([]string, 0, len(r.profiles))
	for id := range r.profiles {
		ids = append(ids, id)
	}
	// The scan collects IDs in map order; sort before filtering so it
	// returns the same candidate order on every run.
	sort.Strings(ids)
	return r.filterByBudget(ids, b)
}

func matchIDs(ms []lsh.Match) []string {
	ids := make([]string, len(ms))
	for i, m := range ms {
		ids[i] = m.ID
	}
	return ids
}

func (r *ResourceIndex) filterByBudget(ids []string, b Budget) []string {
	var out []string
	for _, id := range ids {
		if b.Satisfies(r.profiles[id]) {
			out = append(out, id)
		}
	}
	return out
}

// MemoryBytes estimates the index footprint for the Table 4 experiment.
func (r *ResourceIndex) MemoryBytes() int64 {
	var total int64
	total += r.lsh.MemoryBytes()
	for id := range r.profiles {
		total += int64(len(id)) + 32
	}
	return total
}
