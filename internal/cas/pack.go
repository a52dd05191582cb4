package cas

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"sommelier/internal/chunk"
	"sommelier/internal/graph"
)

// A pack is one model as a single byte string: its manifest and every
// chunk the manifest references, raw — the pull-side counterpart of the
// chunk negotiation a publish runs, for a receiver that holds nothing
// yet and wants the whole model in one response.
//
//	magic    "SOMXPK1\n"                      8 bytes
//	manLen   uint32, big endian
//	manifest manLen bytes, the binary form of manifestcodec.go
//	then, once per address in Manifest.ChunkRefs() order:
//	  len    uint32, big endian
//	  chunk  len bytes
//
// Chunk addresses are not on the wire. The reader hashes each record
// and requires the result to be the manifest's next reference, so every
// chunk is verified against the manifest by the one hash that also
// names it, and the record order is fixed by the manifest alone.
const packMagic = "SOMXPK1\n"

// packLenSize is the width of the manifest and record length prefixes.
const packLenSize = 4

// EncodePack appends the pack of a manifest and its chunks, fetched
// through get (typically a chunk store's Get), to dst and returns the
// extended slice; a server that renders packs over and over hands back
// the previous result's bytes, so a pack costs no allocation once one
// as large has been rendered. It copies bytes and nothing else: no
// tensor is reassembled, no chunk re-hashed — get's store has verified
// them or will not, and ReadPack trusts neither.
func EncodePack(dst []byte, man *Manifest, get func(hash string) ([]byte, error)) ([]byte, error) {
	out := append(dst, packMagic...)
	lenAt := len(out)
	out = append(out, 0, 0, 0, 0) // the manifest's length, set once known
	out, err := appendManifest(out, man)
	if err != nil {
		return dst, fmt.Errorf("cas: packing %s: %w", man.ID(), err)
	}
	manLen := len(out) - lenAt - packLenSize
	if uint64(manLen) > math.MaxUint32 {
		return dst, fmt.Errorf("cas: packing %s: manifest is %d bytes, past the record limit", man.ID(), manLen)
	}
	binary.BigEndian.PutUint32(out[lenAt:], uint32(manLen))
	refs := man.ChunkRefs()
	chunks := make([][]byte, len(refs))
	size := 0
	for i, h := range refs {
		data, err := get(h)
		if err != nil {
			return dst, fmt.Errorf("cas: packing %s: %w", man.ID(), err)
		}
		if uint64(len(data)) > math.MaxUint32 {
			return dst, fmt.Errorf("cas: packing %s: chunk %s is %d bytes, past the record limit", man.ID(), short(h), len(data))
		}
		chunks[i] = data
		size += packLenSize + len(data)
	}
	out = slices.Grow(out, size)
	for _, data := range chunks {
		out = binary.BigEndian.AppendUint32(out, uint32(len(data)))
		out = append(out, data...)
	}
	return out, nil
}

// ReadPack decodes a pack into the model it carries. Nothing in data is
// trusted: the manifest must validate, each record must hash to the
// manifest's next chunk reference (so a flipped byte, a missing, extra,
// reordered or repeated record all fail here), the pack must end with
// the last referenced chunk, and the result is Hydrate's — shapes
// checked against the bytes received, the rebuilt model validated. Every
// length is checked against the bytes in hand before anything is sized
// from it. The chunks alias data until Hydrate has copied them into
// tensors; the returned model never does, so a caller may reuse data
// for its next read as soon as ReadPack returns.
func ReadPack(data []byte) (*graph.Model, error) {
	if len(data) < len(packMagic) || string(data[:len(packMagic)]) != packMagic {
		return nil, fmt.Errorf("cas: not a pack: bad or truncated magic")
	}
	rest := data[len(packMagic):]
	mbytes, rest, err := packRecord(rest)
	if err != nil {
		return nil, fmt.Errorf("cas: pack manifest: %w", err)
	}
	man, err := decodeManifest(mbytes)
	if err != nil {
		return nil, err
	}
	refs := man.ChunkRefs()
	chunks := make(map[string][]byte, len(refs))
	for i, want := range refs {
		var payload []byte
		if payload, rest, err = packRecord(rest); err != nil {
			return nil, fmt.Errorf("cas: pack %s record %d of %d: %w", man.ID(), i+1, len(refs), err)
		}
		if got := chunk.Hash(payload); got != want {
			return nil, fmt.Errorf("cas: pack %s record %d hashes to %s: manifest references a chunk the pack does not carry (%s)",
				man.ID(), i+1, short(got), short(want))
		}
		chunks[want] = payload
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("cas: pack %s: %d bytes after the last referenced chunk", man.ID(), len(rest))
	}
	return Hydrate(man, func(hash string) ([]byte, error) {
		payload, ok := chunks[hash]
		if !ok {
			return nil, fmt.Errorf("cas: pack %s: %w %s", man.ID(), ErrMissingChunk, short(hash))
		}
		return payload, nil
	})
}

// packRecord splits one length-prefixed record off the front of b.
func packRecord(b []byte) (payload, rest []byte, err error) {
	if len(b) < packLenSize {
		return nil, nil, fmt.Errorf("truncated: %d bytes where a length prefix belongs", len(b))
	}
	n := binary.BigEndian.Uint32(b)
	b = b[packLenSize:]
	if uint64(n) > uint64(len(b)) {
		return nil, nil, fmt.Errorf("truncated: record declares %d bytes, %d remain", n, len(b))
	}
	return b[:n], b[n:], nil
}
