package cas

import (
	"bytes"
	"fmt"
	"math"

	"sommelier/internal/chunk"
	"sommelier/internal/graph"
	"sommelier/internal/tensor"
)

// Encoded is a model rendered into the content-addressed form: the
// manifest plus every chunk it references, keyed by address. It is the
// unit a publish hands to a store and the unit replication ships —
// receivers take the manifest, ask for the chunks they miss, and drop
// the rest on the floor.
//
// Chunks' values may alias Model's tensors: on a little-endian host
// chunk.Split hashes a tensor's memory in place, and delta streams are
// the only chunk bytes Encode allocates. So Chunks is read-only, and
// the model's tensors must not change while the encoding is in use.
type Encoded struct {
	Model    *graph.Model
	Manifest *Manifest
	Chunks   map[string][]byte
}

// Chunk returns the chunk the encoding carries under hash — the chunk
// source EncodePack takes when the pack is rendered from an encoding
// rather than a store.
func (e *Encoded) Chunk(hash string) ([]byte, error) {
	data, ok := e.Chunks[hash]
	if !ok {
		return nil, fmt.Errorf("%w %s", ErrMissingChunk, short(hash))
	}
	return data, nil
}

// Encode chunks a model into manifest + chunks. When base is non-nil,
// tensors are deduplicated against it: a tensor bit-identical to the
// base's same-named tensor becomes a pure reference to the base's chunk
// list, and a tensor with sparse edits becomes a delta. baseID names
// the base in the manifest for provenance. chunkSize <= 0 uses
// chunk.DefaultSize.
//
// Encode is pure CPU — no locks, no I/O — so callers can run it outside
// any critical section. It validates m first, and its only error is
// m.Validate's, returned as it is so that each caller names its own
// refusal; callers need not validate m themselves.
func Encode(m *graph.Model, baseID string, base *graph.Model, chunkSize int) (*Encoded, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	enc := &Encoded{
		Model:  m,
		Chunks: make(map[string][]byte),
	}
	man := &Manifest{
		Format:       ManifestFormat,
		Name:         m.Name,
		Version:      m.Version,
		Task:         m.Task,
		InputShape:   append([]int(nil), m.InputShape...),
		Preprocessor: m.Preprocessor,
		OutputLabels: append([]string(nil), m.OutputLabels...),
		Layers:       make([]LayerRef, len(m.Layers)),
	}
	if m.Metadata != nil {
		man.Metadata = make(map[string]string, len(m.Metadata))
		for k, v := range m.Metadata {
			man.Metadata[k] = v
		}
	}
	if base != nil && baseID != "" {
		man.BaseID = baseID
	}
	emit := func(h string, data []byte) {
		if _, ok := enc.Chunks[h]; !ok {
			enc.Chunks[h] = data
		}
	}
	for i, l := range m.Layers {
		lr := LayerRef{Name: l.Name, Op: l.Op, Inputs: append([]string(nil), l.Inputs...), Attrs: l.Attrs}
		if len(l.Params) > 0 {
			lr.Params = make(map[string]TensorRef, len(l.Params))
			for _, pname := range l.ParamNames() {
				p := l.Params[pname]
				lr.Params[pname] = encodeTensor(l.Name, pname, p, base, chunkSize, emit)
			}
		}
		man.Layers[i] = lr
	}
	enc.Manifest = man
	return enc, nil
}

// encodeTensor picks the cheapest of the three forms for one tensor:
// pure base reference (bit-identical), delta against the base, or dense
// chunks.
func encodeTensor(layer, pname string, p *tensor.Tensor, base *graph.Model, chunkSize int, emit func(string, []byte)) TensorRef {
	ref := TensorRef{Shape: append([]int(nil), p.Shape()...)}
	vals := p.Data()
	if bt := baseTensor(base, layer, pname, p.Shape()); bt != nil {
		baseVals := bt.Data()
		// The base's canonical chunk list is a pure function of its
		// content, so it matches whatever a dense publish of the base
		// produced — no store lookup needed, and the store dedups the
		// re-emitted chunks for free.
		if bitsEqual(baseVals, vals) {
			ref.Chunks = chunk.Split(baseVals, chunkSize, emit)
			return ref
		}
		if delta, ok := chunk.EncodeDelta(baseVals, vals); ok {
			baseChunks := chunk.Split(baseVals, chunkSize, emit)
			dh := chunk.Hash(delta)
			emit(dh, delta)
			ref.Delta = &DeltaRef{Base: baseChunks, Chunks: []string{dh}}
			return ref
		}
	}
	ref.Chunks = chunk.Split(vals, chunkSize, emit)
	return ref
}

// baseTensor resolves the base model's tensor for (layer, param) when
// its shape matches; nil when the base has no comparable tensor.
func baseTensor(base *graph.Model, layer, pname string, shape tensor.Shape) *tensor.Tensor {
	if base == nil {
		return nil
	}
	bl := base.Layer(layer)
	if bl == nil {
		return nil
	}
	bt := bl.Param(pname)
	if bt == nil || !bt.Shape().Equal(shape) {
		return nil
	}
	return bt
}

// bitsEqual compares float64 slices bit-exactly.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Hydrate reconstructs the model a manifest describes, fetching chunk
// contents through get (typically Store.Get). The result is bit-exact:
// encoding the hydrated model yields the same bytes as encoding the
// original. The rebuilt model is validated before being returned.
func Hydrate(man *Manifest, get func(hash string) ([]byte, error)) (*graph.Model, error) {
	if err := man.Validate(); err != nil {
		return nil, err
	}
	m := &graph.Model{
		Name:         man.Name,
		Version:      man.Version,
		Task:         man.Task,
		InputShape:   append(tensor.Shape(nil), man.InputShape...),
		Preprocessor: man.Preprocessor,
		OutputLabels: append([]string(nil), man.OutputLabels...),
		Layers:       make([]*graph.Layer, len(man.Layers)),
	}
	if man.Metadata != nil {
		m.Metadata = make(map[string]string, len(man.Metadata))
		for k, v := range man.Metadata {
			m.Metadata[k] = v
		}
	}
	for i, lr := range man.Layers {
		l := &graph.Layer{Name: lr.Name, Op: lr.Op, Inputs: append([]string(nil), lr.Inputs...), Attrs: lr.Attrs}
		if len(lr.Params) > 0 {
			l.Params = make(map[string]*tensor.Tensor, len(lr.Params))
			for _, pname := range sortedParamNames(lr.Params) {
				ref := lr.Params[pname]
				vals, err := hydrateTensor(ref, get)
				if err != nil {
					return nil, fmt.Errorf("cas: hydrating %s layer %q param %q: %w", man.ID(), lr.Name, pname, err)
				}
				l.Params[pname] = tensor.FromSlice(vals, ref.Shape...)
			}
		}
		m.Layers[i] = l
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("cas: hydrated model invalid: %w", err)
	}
	return m, nil
}

// hydrateTensor fetches and reassembles one tensor's values. Each
// parameter byte is copied once, from the chunk into the returned
// slice: a delta is replayed onto the base slice Join just made, which
// nothing else holds, and a one-chunk delta stream is read where it
// lies.
func hydrateTensor(ref TensorRef, get func(hash string) ([]byte, error)) ([]float64, error) {
	want := tensor.Shape(ref.Shape).NumElements()
	if ref.Delta == nil {
		datas, err := fetchAll(ref.Chunks, get)
		if err != nil {
			return nil, err
		}
		return chunk.Join(datas, want)
	}
	baseDatas, err := fetchAll(ref.Delta.Base, get)
	if err != nil {
		return nil, err
	}
	vals, err := chunk.Join(baseDatas, want)
	if err != nil {
		return nil, fmt.Errorf("delta base: %w", err)
	}
	deltaDatas, err := fetchAll(ref.Delta.Chunks, get)
	if err != nil {
		return nil, err
	}
	var stream []byte
	if len(deltaDatas) == 1 {
		stream = deltaDatas[0]
	} else {
		stream = bytes.Join(deltaDatas, nil)
	}
	if err := chunk.ApplyDelta(vals, stream); err != nil {
		return nil, err
	}
	return vals, nil
}

func fetchAll(hashes []string, get func(hash string) ([]byte, error)) ([][]byte, error) {
	out := make([][]byte, len(hashes))
	for i, h := range hashes {
		data, err := get(h)
		if err != nil {
			return nil, err
		}
		out[i] = data
	}
	return out, nil
}
