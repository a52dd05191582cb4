package cas

import (
	"fmt"
	"io"
	"sort"

	"sommelier/internal/chunk"
	"sommelier/internal/graph"
)

// ManifestFormat versions the manifest wire form. Format 1 was JSON;
// format 2 is the binary form of manifestcodec.go, and the only one read.
const ManifestFormat = 2

// TensorRef records where one parameter tensor's content lives: either
// a dense ordered chunk list, or a delta against a base tensor's chunks.
type TensorRef struct {
	Shape []int
	// Chunks is the ordered chunk list of the raw tensor data (dense
	// form). Empty when Delta is set.
	Chunks []string
	// Delta stores the tensor as sparse edits against a base tensor.
	Delta *DeltaRef
}

// DeltaRef is the delta form of a tensor: the base tensor's dense chunk
// list plus the chunks holding the sparse edit stream (internal/chunk
// delta encoding) that turns the base into this tensor.
type DeltaRef struct {
	Base   []string
	Chunks []string
}

// LayerRef is one layer's structure plus its parameter tensor refs.
type LayerRef struct {
	Name   string
	Op     graph.OpKind
	Inputs []string
	Attrs  graph.Attrs
	Params map[string]TensorRef
}

// Manifest records a model as structure plus chunk references — the
// unit the repository stores, the hub negotiates, and the cluster
// replicates. A manifest is small (hashes, not weights); all bulk lives
// in the chunk store.
type Manifest struct {
	Format       int
	Name         string
	Version      string
	Task         graph.TaskKind
	InputShape   []int
	Preprocessor string
	OutputLabels []string
	Metadata     map[string]string
	// BaseID names the model this manifest's deltas are encoded
	// against, for provenance. Hydration never needs the base model —
	// delta refs carry the base tensor's own chunk list — so deleting
	// the base cannot orphan a variant.
	BaseID string
	Layers []LayerRef
}

// ID returns the repository ID the manifest's model publishes under.
func (m *Manifest) ID() string { return m.Name + "@" + m.Version }

// ChunkRefs returns every chunk address the manifest references —
// dense, delta base, and delta stream alike — deduplicated and sorted.
// This is the reference set for refcounting and transfer negotiation.
func (m *Manifest) ChunkRefs() []string {
	seen := make(map[string]bool)
	var out []string
	add := func(hs []string) {
		for _, h := range hs {
			if !seen[h] {
				seen[h] = true
				out = append(out, h)
			}
		}
	}
	for _, l := range m.Layers {
		for _, name := range sortedParamNames(l.Params) {
			ref := l.Params[name]
			add(ref.Chunks)
			if ref.Delta != nil {
				add(ref.Delta.Base)
				add(ref.Delta.Chunks)
			}
		}
	}
	sort.Strings(out)
	return out
}

// Validate checks the manifest's structural well-formedness — enough to
// reject garbage before touching the chunk store. Content-level checks
// happen at hydration, where the chunks are in hand.
func (m *Manifest) Validate() error {
	if m.Format != ManifestFormat {
		return fmt.Errorf("cas: unsupported manifest format %d", m.Format)
	}
	if m.Name == "" {
		return fmt.Errorf("cas: manifest has no model name")
	}
	for _, l := range m.Layers {
		for _, name := range sortedParamNames(l.Params) {
			ref := l.Params[name]
			if (len(ref.Chunks) == 0) == (ref.Delta == nil) {
				return fmt.Errorf("cas: manifest %s layer %q param %q must have exactly one of chunks or delta",
					m.ID(), l.Name, name)
			}
			lists := [3][]string{ref.Chunks}
			if ref.Delta != nil {
				lists[1], lists[2] = ref.Delta.Base, ref.Delta.Chunks
			}
			for _, hs := range lists {
				for _, h := range hs {
					if !chunk.ValidHash(h) {
						return fmt.Errorf("cas: manifest %s layer %q param %q: invalid chunk address %q",
							m.ID(), l.Name, name, h)
					}
				}
			}
		}
	}
	return nil
}

// sortedParamNames returns a param map's keys in sorted order so every
// manifest traversal is deterministic.
func sortedParamNames(params map[string]TensorRef) []string {
	names := make([]string, 0, len(params))
	for n := range params {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// EncodeManifest writes the manifest's binary form (manifestcodec.go)
// in one Write. A manifest that fails Validate, or that the form cannot
// represent, is an error and nothing is written.
func EncodeManifest(w io.Writer, m *Manifest) error {
	b, err := appendManifest(nil, m)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// DecodeManifest reads a manifest's binary form to the end of r, and
// validates it.
func DecodeManifest(r io.Reader) (*Manifest, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("cas: decoding manifest: %w", err)
	}
	return decodeManifest(data)
}

// Missing returns the manifest's chunk references not satisfied by has,
// sorted — the transfer negotiation primitive: "send me exactly these".
func Missing(m *Manifest, has func(hash string) bool) []string {
	var out []string
	for _, h := range m.ChunkRefs() {
		if !has(h) {
			out = append(out, h)
		}
	}
	return out
}
