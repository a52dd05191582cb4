package index

import (
	"fmt"
	"maps"
	"slices"

	"sommelier/internal/graph"
	"sommelier/internal/resource"
)

// Snapshots implement §5.5's persistence note: both indices are plain
// data structures whose contents can be populated to disk and restored
// without re-running the (expensive, offline) pairwise analysis. Models
// themselves always stay in the repository; snapshots carry metadata
// only.

// SemanticEntrySnapshot is one serialized semantic-index entry.
type SemanticEntrySnapshot struct {
	ID         string             `json:"id"`
	Candidates []Candidate        `json:"candidates,omitempty"`
	Measured   map[string]float64 `json:"measured,omitempty"`
}

// SemanticSnapshot is the serializable state of a SemanticIndex.
type SemanticSnapshot struct {
	SampleSize int                     `json:"sample_size"`
	Entries    []SemanticEntrySnapshot `json:"entries"`
}

// Snapshot captures the index's current state in insertion order. The
// result shares nothing with the index: the lists are copied because
// the caller may write to what it gets, the measured-diff maps because
// later commits write to them.
func (s *SemanticIndex) Snapshot() SemanticSnapshot {
	snap := SemanticSnapshot{SampleSize: s.SampleSize}
	for _, id := range s.order {
		e := SemanticEntrySnapshot{ID: id, Candidates: slices.Clone(s.lists[id])}
		if len(s.measured[id]) > 0 {
			e.Measured = maps.Clone(s.measured[id])
		}
		snap.Entries = append(snap.Entries, e)
	}
	return snap
}

// Restore replaces the index's contents with a snapshot. resolve maps a
// model ID back to its graph (normally repo.Load) so future insertions
// can analyze against restored entries; it may return nil for models
// that will never be re-analyzed.
func (s *SemanticIndex) Restore(snap SemanticSnapshot, resolve func(id string) (*graph.Model, error)) error {
	v := &SemanticVersion{lists: make(map[string][]Candidate, len(snap.Entries))}
	entries := make(map[string]Entry, len(snap.Entries))
	measured := make(map[string]map[string]float64, len(snap.Entries))
	for _, e := range snap.Entries {
		if e.ID == "" {
			return fmt.Errorf("index: snapshot entry without ID")
		}
		if _, dup := v.lists[e.ID]; dup {
			return fmt.Errorf("index: snapshot has duplicate entry %q", e.ID)
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
		v.lists[e.ID] = slices.Clone(e.Candidates)
		measured[e.ID] = make(map[string]float64, len(e.Measured))
		maps.Copy(measured[e.ID], e.Measured)
		v.diffs += len(e.Measured)
		v.order = append(v.order, e.ID)
	}
	if snap.SampleSize > 0 {
		s.SampleSize = snap.SampleSize
	}
	s.SemanticVersion, s.handedOut = v, false
	s.entries, s.measured = entries, measured
	return nil
}

// ResourceSnapshot is the serialized resource side of a catalog: the
// footprint table, from which every profile is derived. LSH state was
// never part of the wire shape.
type ResourceSnapshot struct {
	Footprints map[string]resource.Footprint `json:"footprints"`
}
