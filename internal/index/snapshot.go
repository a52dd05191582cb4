package index

import (
	"fmt"

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
	ID          string             `json:"id"`
	Fingerprint string             `json:"fingerprint"`
	Candidates  []Candidate        `json:"candidates,omitempty"`
	Measured    map[string]float64 `json:"measured,omitempty"`
}

// SemanticSnapshot is the serializable state of a SemanticIndex.
type SemanticSnapshot struct {
	SampleSize int                     `json:"sample_size"`
	Entries    []SemanticEntrySnapshot `json:"entries"`
}

// Snapshot captures the index's current state in insertion order.
func (s *SemanticIndex) Snapshot() SemanticSnapshot {
	snap := SemanticSnapshot{SampleSize: s.SampleSize}
	for _, id := range s.order {
		rec := s.entries[id]
		e := SemanticEntrySnapshot{
			ID:          id,
			Fingerprint: rec.fingerprint,
			Candidates:  append([]Candidate(nil), rec.candidates...),
		}
		if len(rec.measured) > 0 {
			e.Measured = make(map[string]float64, len(rec.measured))
			for k, v := range rec.measured {
				e.Measured[k] = v
			}
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
	entries := make(map[string]*semEntry, len(snap.Entries))
	byFP := make(map[string]string, len(snap.Entries))
	order := make([]string, 0, len(snap.Entries))
	for _, e := range snap.Entries {
		if e.ID == "" {
			return fmt.Errorf("index: snapshot entry without ID")
		}
		if _, dup := entries[e.ID]; dup {
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
		rec := &semEntry{
			entry:       Entry{ID: e.ID, Model: m},
			fingerprint: e.Fingerprint,
			candidates:  append([]Candidate(nil), e.Candidates...),
			measured:    make(map[string]float64, len(e.Measured)),
		}
		for k, v := range e.Measured {
			rec.measured[k] = v
		}
		entries[e.ID] = rec
		byFP[e.Fingerprint] = e.ID
		order = append(order, e.ID)
	}
	if snap.SampleSize > 0 {
		s.SampleSize = snap.SampleSize
	}
	s.entries = entries
	s.byFP = byFP
	s.order = order
	return nil
}

// ResourceSnapshot is the serialized resource side of a catalog: the
// profile table. LSH state was never part of the wire shape.
type ResourceSnapshot struct {
	Profiles map[string]resource.Profile `json:"profiles"`
}
