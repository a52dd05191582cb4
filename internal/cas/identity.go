package cas

import (
	"crypto/sha256"
	"encoding/binary"

	"sommelier/internal/chunk"
)

// TensorID is a tensor's identity: the SHA-256 of its shape and its
// chunk-ref list, dense or delta. The chunks are content addressed and
// a store checks each one against its address before keeping it, so a
// ref list fixes the content it hydrates to, and two tensors with one
// ID hold the same values. The converse does not hold: a dense and a
// delta encoding of one content, or two chunk sizes, give two IDs.
// Layers above the storage use an ID only to skip work, never to
// decide that two tensors differ.
type TensorID [sha256.Size]byte

// Identity is a model's tensor identity: for each layer with
// parameters, its parameters' IDs in sorted parameter-name order, the
// order graph.Layer.ParamNames gives. It describes the model it was
// taken with — the one encoded to, or hydrated from, its manifest —
// and no other: it is never looked up again by model ID, where a
// concurrent overwrite could pair it with another model's tensors.
type Identity map[string][]TensorID

// ID returns the tensor's identity.
func (r TensorRef) ID() TensorID {
	// 'D' shape chunks, or 'd' shape base-chunks delta-chunks: every
	// list is counted and every address is chunk.HashLen bytes, so no
	// two ref lists write the same stream.
	lists := [][]string{r.Chunks}
	form := byte('D')
	if r.Delta != nil {
		lists, form = [][]string{r.Delta.Base, r.Delta.Chunks}, 'd'
	}
	size := 1 + binary.MaxVarintLen64*(1+len(r.Shape)+len(lists))
	for _, hs := range lists {
		size += len(hs) * chunk.HashLen
	}
	b := append(make([]byte, 0, size), form)
	b = binary.AppendUvarint(b, uint64(len(r.Shape)))
	for _, d := range r.Shape {
		b = binary.AppendVarint(b, int64(d))
	}
	for _, hs := range lists {
		b = binary.AppendUvarint(b, uint64(len(hs)))
		for _, h := range hs {
			b = append(b, h...)
		}
	}
	return sha256.Sum256(b)
}

// Identity returns the tensor identity of the model the manifest
// describes.
func (m *Manifest) Identity() Identity {
	ident := make(Identity, len(m.Layers))
	for _, l := range m.Layers {
		if len(l.Params) == 0 {
			continue
		}
		ids := make([]TensorID, 0, len(l.Params))
		for _, name := range sortedParamNames(l.Params) {
			ids = append(ids, l.Params[name].ID())
		}
		ident[l.Name] = ids
	}
	return ident
}
