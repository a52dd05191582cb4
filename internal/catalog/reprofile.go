package catalog

import "sommelier/internal/resource"

// ReprofileKey identifies one (model, execution-setting) measurement.
// ExecSetting is a flat value struct, so the key is comparable and two
// queries asking for the same model under the same EXEC spec share one
// entry.
type ReprofileKey struct {
	ID      string
	Setting resource.ExecSetting
}

// ReprofileMemo deduplicates expensive re-profiling work (store.Load +
// Profiler.MeasureWith) across the queries of one batch. A model that
// appears as a candidate of many queries under the same EXEC setting is
// loaded and measured exactly once; every other query blocks on — and
// then shares — that first measurement. Measurement is deterministic
// for a fixed (model, setting), so sharing never changes results, only
// how much work produces them.
//
// The memo is scoped to one batch (or one serial query): it caches
// against a single catalog snapshot and must not outlive it.
type ReprofileMemo struct {
	profiles memo[ReprofileKey, resource.Profile]
}

// NewReprofileMemo returns an empty memo.
func NewReprofileMemo() *ReprofileMemo { return &ReprofileMemo{} }

// Profile returns the memoized measurement for key, running measure at
// most once per key across all callers. Errors are memoized too: a
// model that fails to load fails identically for every query in the
// batch instead of being retried per query.
func (m *ReprofileMemo) Profile(key ReprofileKey, measure func() (resource.Profile, error)) (resource.Profile, error) {
	return m.profiles.get(key, measure)
}

// Len reports how many distinct (model, setting) measurements the memo
// holds — the number of Load+Measure round trips actually performed (or
// in flight).
func (m *ReprofileMemo) Len() int { return m.profiles.len() }
