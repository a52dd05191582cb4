package index

import (
	"fmt"
	"slices"

	"sommelier/internal/graph"
	"sommelier/internal/resource"
)

// Snapshots implement §5.5's persistence note: both indices are plain
// data structures whose contents can be populated to disk and restored
// without re-running the (expensive, offline) pairwise analysis. Models
// themselves always stay in the repository; snapshots carry metadata
// only, and never writer state or configuration: the candidate lists
// are the one copy of every level, and the sample size is the engine's
// option.

// SemanticEntrySnapshot is one serialized semantic-index entry.
type SemanticEntrySnapshot struct {
	ID         string      `json:"id"`
	Candidates []Candidate `json:"candidates,omitempty"`
}

// SemanticSnapshot is the serializable state of a SemanticIndex.
type SemanticSnapshot struct {
	Entries []SemanticEntrySnapshot `json:"entries"`
}

// Snapshot captures the version in insertion order. The lists are
// copied because the caller may write to what it gets.
func (v *SemanticVersion) Snapshot() SemanticSnapshot {
	var snap SemanticSnapshot
	for _, id := range v.order {
		snap.Entries = append(snap.Entries, SemanticEntrySnapshot{ID: id, Candidates: slices.Clone(v.lists[id])})
	}
	return snap
}

// Restore replaces the index's contents with a snapshot. resolve maps a
// model ID back to its graph (normally repo.Load) so future insertions
// can analyze against restored entries; it may return nil for models
// that will never be re-analyzed. A level outside [0, 1] or a kind
// other than KindWhole and KindSynthesized is refused; each list is
// put in the order Lookup's search relies on, with one record per (ID,
// Kind, Segment), whatever order the snapshot holds.
func (s *SemanticIndex) Restore(snap SemanticSnapshot, resolve func(id string) (*graph.Model, error)) error {
	v := &SemanticVersion{lists: make(map[string][]Candidate, len(snap.Entries))}
	entries := make(map[string]Entry, len(snap.Entries))
	for _, e := range snap.Entries {
		if e.ID == "" {
			return fmt.Errorf("index: snapshot entry without ID")
		}
		if _, dup := v.lists[e.ID]; dup {
			return fmt.Errorf("index: snapshot has duplicate entry %q", e.ID)
		}
		for _, c := range e.Candidates {
			if !(c.Level >= 0 && c.Level <= 1) {
				return fmt.Errorf("index: snapshot level %g of %q for %q outside [0,1]", c.Level, c.ID, e.ID)
			}
			if c.Kind != KindWhole && c.Kind != KindSynthesized {
				return fmt.Errorf("index: snapshot record %q for %q has unknown kind %d", c.ID, e.ID, c.Kind)
			}
		}
		var m *graph.Model
		if resolve != nil {
			var err error
			m, err = resolve(e.ID)
			if err != nil {
				return fmt.Errorf("index: resolving %q: %w", e.ID, err)
			}
		}
		entries[e.ID] = Entry{ID: e.ID, Model: m}
		// Copied: the caller keeps the snapshot and may write to it.
		v.lists[e.ID] = sortedOnce(slices.Clone(e.Candidates))
		v.order = append(v.order, e.ID)
	}
	s.SemanticVersion, s.handedOut = v, false
	s.entries = entries
	return nil
}

// ResourceSnapshot is the serialized resource side of a catalog: the
// footprint table, from which every profile is derived. LSH state was
// never part of the wire shape.
type ResourceSnapshot struct {
	Footprints map[string]resource.Footprint `json:"footprints"`
}
