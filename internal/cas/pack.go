package cas

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

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
//	manifest manLen bytes, EncodeManifest form
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

// EncodePack renders a manifest and its chunks, fetched through get
// (typically a chunk store's Get), as one pack. It copies bytes and
// nothing else: no tensor is reassembled, no chunk re-hashed — get's
// store has verified them or will not, and ReadPack trusts neither.
func EncodePack(man *Manifest, get func(hash string) ([]byte, error)) ([]byte, error) {
	var mbuf bytes.Buffer
	if err := EncodeManifest(&mbuf, man); err != nil {
		return nil, fmt.Errorf("cas: packing %s: %w", man.ID(), err)
	}
	if uint64(mbuf.Len()) > math.MaxUint32 {
		return nil, fmt.Errorf("cas: packing %s: manifest is %d bytes, past the record limit", man.ID(), mbuf.Len())
	}
	refs := man.ChunkRefs()
	chunks := make([][]byte, len(refs))
	size := len(packMagic) + packLenSize + mbuf.Len()
	for i, h := range refs {
		data, err := get(h)
		if err != nil {
			return nil, fmt.Errorf("cas: packing %s: %w", man.ID(), err)
		}
		if uint64(len(data)) > math.MaxUint32 {
			return nil, fmt.Errorf("cas: packing %s: chunk %s is %d bytes, past the record limit", man.ID(), short(h), len(data))
		}
		chunks[i] = data
		size += packLenSize + len(data)
	}
	out := make([]byte, 0, size)
	out = append(out, packMagic...)
	out = binary.BigEndian.AppendUint32(out, uint32(mbuf.Len()))
	out = append(out, mbuf.Bytes()...)
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
// tensors; the returned model does not.
func ReadPack(data []byte) (*graph.Model, error) {
	if len(data) < len(packMagic) || string(data[:len(packMagic)]) != packMagic {
		return nil, fmt.Errorf("cas: not a pack: bad or truncated magic")
	}
	rest := data[len(packMagic):]
	mbytes, rest, err := packRecord(rest)
	if err != nil {
		return nil, fmt.Errorf("cas: pack manifest: %w", err)
	}
	man, err := DecodeManifest(bytes.NewReader(mbytes))
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
