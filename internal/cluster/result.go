package cluster

import "sommelier/internal/query"

// Result is one model in a cluster query answer: query.Result, the type
// the shard engines return and a shard hub answers on the wire.
type Result = query.Result

// Response is a scatter-gather query answer. Results are globally
// ranked and truncated to the query's limit; Missing and Stale tag the
// shards that could not contribute fresh data, so a caller always
// knows whether it is looking at the whole catalog or a partial view.
type Response struct {
	// Results is the merged, ranked top-K across contributing shards.
	Results []Result `json:"results"`
	// Shards is the cluster's shard count.
	Shards int `json:"shards"`
	// Missing lists shards (ascending) that contributed nothing: every
	// replica failed and no last-known-good answer was cached.
	Missing []int `json:"missing,omitempty"`
	// Stale lists shards (ascending) served from the coordinator's
	// last-known-good cache because every replica failed.
	Stale []int `json:"stale,omitempty"`
	// Failovers is how many replica failovers this query performed.
	Failovers int `json:"failovers,omitempty"`
}

// Outcome classes for a Response.
const (
	OutcomeFull     = "full"
	OutcomeDegraded = "degraded"
	OutcomeFailed   = "failed"
)

// Complete reports whether every shard contributed a fresh answer.
func (r *Response) Complete() bool { return len(r.Missing) == 0 && len(r.Stale) == 0 }

// Class buckets the response: "full" (all shards fresh), "failed" (no
// shard contributed at all), "degraded" (anything in between — stale
// shards or a partial result).
func (r *Response) Class() string {
	if r.Complete() {
		return OutcomeFull
	}
	if len(r.Missing) == r.Shards {
		return OutcomeFailed
	}
	return OutcomeDegraded
}

// mergeTopK concatenates per-shard results, ranks them with the same
// ordering the single-node engine uses (pick order, then ID as the
// deterministic tie-break), drops duplicate IDs — broadcast reference
// models are indexed on every shard — keeping the best-ranked
// occurrence, and applies the query's limit.
func mergeTopK(q *query.Query, perShard [][]Result) []Result {
	total := 0
	for _, rs := range perShard {
		total += len(rs)
	}
	all := make([]Result, 0, total)
	for _, rs := range perShard {
		all = append(all, rs...)
	}
	query.SortResults(all, q.Pick)
	seen := make(map[string]bool, len(all))
	out := all[:0]
	for _, r := range all {
		if seen[r.ID] {
			continue
		}
		seen[r.ID] = true
		out = append(out, r)
	}
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[:q.Limit]
	}
	return out
}
