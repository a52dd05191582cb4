package query

import (
	"errors"
	"slices"
	"strings"

	"sommelier/internal/resource"
)

// ErrUnknownReference is wrapped by query errors whose cause is that the
// answering catalog does not hold the query's reference model (or holds
// no default reference for the task). In a sharded deployment that is an
// expected per-shard condition, not a failure: a scatter coordinator
// checks for it with errors.Is and records an empty contribution from
// the shard, and a hub marks it on the wire with a machine-readable code.
var ErrUnknownReference = errors.New("sommelier: reference model not in this catalog")

// Result is one model returned by a query, with everything an inference
// server needs to act on it. It is the one result type of every layer:
// the engine returns it, a hub's /v1/query answers it (the JSON tags are
// that answer's wire form), and a cluster coordinator merges it.
type Result struct {
	// ID is the repository ID; synthesized results carry the base
	// model's ID here and the donor in DonorID.
	ID string `json:"id"`
	// Level is the functional-equivalence level to the reference.
	Level float64 `json:"level"`
	// Synthesized marks segment-replacement candidates (§5.2).
	Synthesized bool   `json:"synthesized,omitempty"`
	DonorID     string `json:"donor_id,omitempty"`
	Segment     string `json:"segment,omitempty"`
	// Derived marks transitively derived (unmeasured) levels.
	Derived bool `json:"derived,omitempty"`
	// Profile is the candidate's resource profile.
	Profile resource.Profile `json:"profile"`
}

// SortResults orders rs by pick — highest level first, or least memory,
// latency or FLOPs first — breaking ties by ID. It is the one ranking
// rule: the engine ranks a query's answer with it, and a cluster
// coordinator merges its shards' answers with it, so a merged answer
// orders exactly like one engine's answer over the same set.
func SortResults(rs []Result, pick PickKind) {
	less := func(a, b Result) bool { return a.Level > b.Level }
	switch pick {
	case PickSmallest:
		less = func(a, b Result) bool { return a.Profile.MemoryBytes < b.Profile.MemoryBytes }
	case PickFastest:
		less = func(a, b Result) bool { return a.Profile.LatencyMS < b.Profile.LatencyMS }
	case PickCheapest:
		less = func(a, b Result) bool { return a.Profile.FLOPs < b.Profile.FLOPs }
	}
	slices.SortStableFunc(rs, func(a, b Result) int {
		switch {
		case less(a, b):
			return -1
		case less(b, a):
			return 1
		}
		return strings.Compare(a.ID, b.ID)
	})
}
