package cas

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"sommelier/internal/chunk"
	"sommelier/internal/graph"
)

// A pack is one model as a single byte string: its manifest and some
// or all of the chunks the manifest references, raw. It is the one
// model body on the wire. A GET answers the complete pack, every
// reference carried, for a receiver that holds nothing yet; a publish
// sends the manifest alone, then the records the hub names as missing.
//
//	magic    "SOMXPK1\n"                      8 bytes
//	manLen   uint32, big endian
//	manifest manLen bytes, the binary form of manifestcodec.go
//	then, once per carried address, in Manifest.ChunkRefs() order:
//	  len    uint32, big endian
//	  chunk  len bytes
//
// Chunk addresses are not on the wire. The reader hashes each record
// and requires the result to be a manifest reference later than the
// previous record's, so every chunk is verified against the manifest by
// the one hash that also names it, and the records are an in-order
// subset of the references, each carried at most once.
const packMagic = "SOMXPK1\n"

// packLenSize is the width of the manifest and record length prefixes.
const packLenSize = 4

// EncodePack appends to dst the pack of a manifest carrying the chunks
// refs names, fetched through get (typically a chunk store's Get), and
// returns the extended slice. refs must be an in-order subset of
// man.ChunkRefs(): all of them for a complete pack, none for the
// manifest alone. A caller that renders packs over and over hands back
// the previous result's bytes, so a pack costs no allocation once one
// as large has been rendered. EncodePack copies bytes and nothing else:
// no tensor is reassembled, no chunk re-hashed — get's store has
// verified them or will not, and the reader trusts neither.
func EncodePack(dst []byte, man *Manifest, refs []string, get func(hash string) ([]byte, error)) ([]byte, error) {
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

// DecodePack reads a pack's manifest and the records it carries, keyed
// by address. Nothing in data is trusted: the manifest must validate;
// each record is named by hashing it, and must be a manifest reference
// later than the previous record's (so a flipped byte, a reordered,
// repeated or unreferenced record all fail here); and the pack must end
// with its last record. Every length is checked against the bytes in
// hand before anything is sized from it. The records alias data, and
// the manifest does not.
func DecodePack(data []byte) (*Manifest, map[string][]byte, error) {
	man, _, chunks, err := decodePack(data)
	return man, chunks, err
}

// decodePack is DecodePack, also returning man.ChunkRefs().
func decodePack(data []byte) (man *Manifest, refs []string, chunks map[string][]byte, err error) {
	if len(data) < len(packMagic) || string(data[:len(packMagic)]) != packMagic {
		return nil, nil, nil, fmt.Errorf("cas: not a pack: bad or truncated magic")
	}
	rest := data[len(packMagic):]
	mbytes, rest, err := packRecord(rest)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("cas: pack manifest: %w", err)
	}
	if man, err = decodeManifest(mbytes); err != nil {
		return nil, nil, nil, err
	}
	refs = man.ChunkRefs()
	if len(rest) > 0 {
		chunks = make(map[string][]byte, len(refs))
	}
	next := 0 // refs[next:] are the addresses a record may still carry
	for i := 1; len(rest) > 0; i++ {
		var payload []byte
		if payload, rest, err = packRecord(rest); err != nil {
			return nil, nil, nil, fmt.Errorf("cas: pack %s record %d of at most %d: %w", man.ID(), i, len(refs), err)
		}
		got := chunk.Hash(payload)
		// refs is sorted, so the first address not below got is the only
		// place got can be.
		at, found := slices.BinarySearch(refs[next:], got)
		if !found {
			return nil, nil, nil, fmt.Errorf("cas: pack %s record %d hashes to %s, no manifest reference after the record before it",
				man.ID(), i, short(got))
		}
		chunks[got] = payload
		next += at + 1
	}
	return man, refs, chunks, nil
}

// ReadPack decodes a complete pack into the model it carries: the
// records DecodePack verified must cover every reference (a partial
// pack is an error wrapping ErrMissingChunk), and the result is
// Hydrate's — shapes checked against the bytes received, the rebuilt
// model validated. The chunks alias data until Hydrate has copied them
// into tensors; the returned model never does, so a caller may reuse
// data for its next read as soon as ReadPack returns. The manifest
// returned with the model is the one it was hydrated from.
func ReadPack(data []byte) (*graph.Model, *Manifest, error) {
	man, refs, chunks, err := decodePack(data)
	if err != nil {
		return nil, nil, err
	}
	if len(chunks) != len(refs) {
		return nil, nil, fmt.Errorf("cas: pack %s carries %d of its %d referenced chunks: %w", man.ID(), len(chunks), len(refs), ErrMissingChunk)
	}
	m, err := Hydrate(man, func(hash string) ([]byte, error) { return chunks[hash], nil })
	if err != nil {
		return nil, nil, err
	}
	return m, man, nil
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
