package query

import (
	"errors"

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
