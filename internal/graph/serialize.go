package graph

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"

	"sommelier/internal/chunk"
	"sommelier/internal/tensor"
)

// The SOMX wire format is the reproduction's stand-in for ONNX: a JSON
// envelope describing the DAG. Each parameter tensor is recorded as an
// ordered list of content addresses into an in-file chunk table (base64
// of the little-endian payload, deduplicated across tensors), so a file
// shared between many tensors with identical content pays for the bytes
// once and the on-disk form lines up with the content-addressed store in
// internal/cas. Real Sommelier imports/exports ONNX through a Python
// shim; here the format is native so the whole pipeline stays in Go.

// somxFormat is the only format number Encode writes and Decode reads.
const somxFormat = 2

type somxFile struct {
	Format       int               `json:"format"`
	Name         string            `json:"name"`
	Version      string            `json:"version"`
	Task         TaskKind          `json:"task"`
	InputShape   []int             `json:"input_shape"`
	Preprocessor string            `json:"preprocessor,omitempty"`
	OutputLabels []string          `json:"output_labels,omitempty"`
	Metadata     map[string]string `json:"metadata,omitempty"`
	Layers       []somxLayer       `json:"layers"`
	// Chunks is the file's chunk table: content address → base64 of the
	// little-endian float64 payload. Tensors with identical content share
	// entries, so a fine-tuned model whose trunk matches its base pays
	// for those bytes once per file.
	Chunks map[string]string `json:"chunks"`
}

type somxLayer struct {
	Name   string                `json:"name"`
	Op     OpKind                `json:"op"`
	Inputs []string              `json:"inputs,omitempty"`
	Attrs  Attrs                 `json:"attrs"`
	Params map[string]somxTensor `json:"params,omitempty"`
}

type somxTensor struct {
	Shape []int `json:"shape"`
	// Chunks lists the tensor's content in offset order, referencing the
	// file's chunk table.
	Chunks []string `json:"chunks"`
}

// Encode writes the model to w in SOMX.
func Encode(w io.Writer, m *Model) error {
	f := somxFile{
		Format:       somxFormat,
		Name:         m.Name,
		Version:      m.Version,
		Task:         m.Task,
		InputShape:   m.InputShape,
		Preprocessor: m.Preprocessor,
		OutputLabels: m.OutputLabels,
		Metadata:     m.Metadata,
		Layers:       make([]somxLayer, len(m.Layers)),
		Chunks:       make(map[string]string),
	}
	for i, l := range m.Layers {
		sl := somxLayer{Name: l.Name, Op: l.Op, Inputs: l.Inputs, Attrs: l.Attrs}
		if len(l.Params) > 0 {
			sl.Params = make(map[string]somxTensor, len(l.Params))
			for name, p := range l.Params {
				refs := chunk.Split(p.Data(), 0, func(h string, data []byte) {
					if _, ok := f.Chunks[h]; !ok {
						f.Chunks[h] = base64.StdEncoding.EncodeToString(data)
					}
				})
				sl.Params[name] = somxTensor{Shape: p.Shape(), Chunks: refs}
			}
		}
		f.Layers[i] = sl
	}
	return json.NewEncoder(w).Encode(&f)
}

// Decode reads a SOMX model from r and validates it.
func Decode(r io.Reader) (*Model, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("graph: reading SOMX: %w", err)
	}
	var f somxFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("graph: decoding SOMX: %w", err)
	}
	if f.Format != somxFormat {
		return nil, fmt.Errorf("graph: unsupported SOMX format %d", f.Format)
	}
	// Decode and verify the chunk table once; tensors then assemble by
	// reference. A chunk whose bytes don't hash to its address is
	// corruption, caught here rather than surfacing as wrong weights.
	table := make(map[string][]byte, len(f.Chunks))
	for h, b64 := range f.Chunks {
		data, err := base64.StdEncoding.DecodeString(b64)
		if err != nil {
			return nil, fmt.Errorf("graph: SOMX chunk %q: %w", h, err)
		}
		if got := chunk.Hash(data); got != h {
			return nil, fmt.Errorf("graph: SOMX chunk %q: content hashes to %q", h, got)
		}
		table[h] = data
	}
	m := &Model{
		Name:         f.Name,
		Version:      f.Version,
		Task:         f.Task,
		InputShape:   f.InputShape,
		Preprocessor: f.Preprocessor,
		OutputLabels: f.OutputLabels,
		Metadata:     f.Metadata,
		Layers:       make([]*Layer, len(f.Layers)),
	}
	for i, sl := range f.Layers {
		l := &Layer{Name: sl.Name, Op: sl.Op, Inputs: sl.Inputs, Attrs: sl.Attrs}
		if len(sl.Params) > 0 {
			l.Params = make(map[string]*tensor.Tensor, len(sl.Params))
			for name, st := range sl.Params {
				datas := make([][]byte, len(st.Chunks))
				for j, h := range st.Chunks {
					data, ok := table[h]
					if !ok {
						return nil, fmt.Errorf("graph: layer %q param %q references chunk %q absent from file table",
							sl.Name, name, h)
					}
					datas[j] = data
				}
				vals, err := chunk.Join(datas, tensor.Shape(st.Shape).NumElements())
				if err != nil {
					return nil, fmt.Errorf("graph: layer %q param %q: %w", sl.Name, name, err)
				}
				l.Params[name] = tensor.FromSlice(vals, st.Shape...)
			}
		}
		m.Layers[i] = l
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("graph: decoded model invalid: %w", err)
	}
	return m, nil
}
