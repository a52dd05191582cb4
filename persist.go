package sommelier

import (
	"encoding/json"
	"fmt"
	"io"

	"sommelier/internal/graph"
	"sommelier/internal/index"
)

// engineSnapshot is the serialized engine state (§5.5, persistence): the
// two index structures plus the default-reference table. Models never
// appear here — they live in the repository. Version 2 carries each
// model's setting-free footprint; version 1 carried default-setting
// profiles, which a footprint cannot be recovered from.
type engineSnapshot struct {
	Version     int                    `json:"version"`
	Semantic    index.SemanticSnapshot `json:"semantic"`
	Resource    index.ResourceSnapshot `json:"resource"`
	DefaultRefs map[string]string      `json:"default_refs,omitempty"`
}

const snapshotVersion = 2

// SaveIndexes writes the engine's index state to w as JSON. A later
// LoadIndexes over the same repository restores the engine without
// re-running the pairwise equivalence analysis.
func (e *Engine) SaveIndexes(w io.Writer) error {
	sem, res, refs := e.cat.Export()
	snap := engineSnapshot{
		Version:     snapshotVersion,
		Semantic:    sem,
		Resource:    res,
		DefaultRefs: refs,
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&snap)
}

// LoadIndexes restores index state previously written by SaveIndexes.
// Restored models are re-resolved from the repository so subsequent
// Register calls can analyze against them; a model missing from the
// repository fails the load (the snapshot and store are out of sync).
// A version-1 snapshot is refused: its models must be indexed again.
func (e *Engine) LoadIndexes(r io.Reader) error {
	var snap engineSnapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("sommelier: decoding index snapshot: %w", err)
	}
	if snap.Version == 1 {
		return fmt.Errorf("sommelier: index snapshot version 1 holds default-setting profiles, not the footprints version %d needs; re-index the models and save a new snapshot", snapshotVersion)
	}
	if snap.Version != snapshotVersion {
		return fmt.Errorf("sommelier: unsupported snapshot version %d", snap.Version)
	}
	resolve := func(id string) (*graph.Model, error) { return e.store.Load(id) }
	return e.cat.Restore(snap.Semantic, snap.Resource, snap.DefaultRefs, resolve)
}
