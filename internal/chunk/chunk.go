// Package chunk provides the low-level content-addressing primitives the
// storage stack is built on: fixed-size chunking of tensor data,
// SHA-256 addressing, bit-exact float64 (de)serialization, and the
// sparse delta codec that stores a fine-tuned tensor as edits against
// its base. The package sits below both internal/graph (SOMX-v2 files
// embed chunk tables) and internal/cas (the refcounted chunk store), so
// it depends on neither.
//
// Everything here is deterministic by construction: chunk boundaries
// are fixed offsets, hashes are content hashes, and encodings are
// little-endian byte-exact — the same tensor always yields the same
// chunk list, on any machine, at any concurrency.
package chunk

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
)

// DefaultSize is the chunk granularity in float64 elements (32 KiB of
// raw data). Small enough that a fine-tuned head does not drag a whole
// trunk chunk with it, large enough that hash and manifest overhead
// stay far below 1% of payload.
const DefaultSize = 4096

// HashLen is the length of a hex chunk address.
const HashLen = sha256.Size * 2

// Hash returns the hex SHA-256 address of a chunk's raw bytes.
func Hash(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// ValidHash reports whether s is syntactically a chunk address.
func ValidHash(s string) bool {
	if len(s) != HashLen {
		return false
	}
	_, err := hex.DecodeString(s)
	return err == nil
}

// Bytes encodes float64 values as little-endian bytes, bit-exactly.
func Bytes(vals []float64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

// Floats decodes little-endian bytes back into float64 values. The
// byte length must be a multiple of 8.
func Floats(data []byte) ([]float64, error) {
	if len(data)%8 != 0 {
		return nil, fmt.Errorf("chunk: %d bytes is not a whole number of float64s", len(data))
	}
	out := make([]float64, len(data)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return out, nil
}

// Split cuts raw tensor data into content-addressed chunks of at most
// size elements and returns the ordered chunk list. The callback
// receives each chunk's address and raw bytes exactly once per distinct
// offset (the caller decides whether it already holds the content).
// size <= 0 uses DefaultSize.
func Split(vals []float64, size int, emit func(hash string, data []byte)) []string {
	if size <= 0 {
		size = DefaultSize
	}
	n := (len(vals) + size - 1) / size
	if len(vals) == 0 {
		n = 1 // zero-element tensors still need one (empty) chunk
	}
	hashes := make([]string, 0, n)
	for i := 0; i < n; i++ {
		lo := i * size
		hi := lo + size
		if hi > len(vals) {
			hi = len(vals)
		}
		data := Bytes(vals[lo:hi])
		h := Hash(data)
		hashes = append(hashes, h)
		if emit != nil {
			emit(h, data)
		}
	}
	return hashes
}

// Join reassembles tensor data from ordered chunk contents, checking
// that the total element count matches want.
func Join(chunks [][]byte, want int) ([]float64, error) {
	// Size the result from the bytes in hand, never from want: want
	// comes from a decoded shape, which a hostile file sets freely.
	have := 0
	for _, data := range chunks {
		have += len(data)
	}
	out := make([]float64, 0, have/8)
	for i, data := range chunks {
		vals, err := Floats(data)
		if err != nil {
			return nil, fmt.Errorf("chunk %d: %w", i, err)
		}
		out = append(out, vals...)
	}
	if len(out) != want {
		return nil, fmt.Errorf("chunk: reassembled %d elements, want %d", len(out), want)
	}
	return out, nil
}

// Delta is one sparse edit run against a base tensor: Count values
// replacing base[Index:Index+Count].
//
// The wire encoding of a delta is a sequence of (uint32 index, uint32
// count, count×float64 values) records, little-endian, in ascending
// index order — 8 bytes of framing per contiguous run, so clustered
// edits (a re-initialized head row, a patched filter) cost barely more
// than their raw values.
const deltaHeader = 8 // uint32 index + uint32 count

// EncodeDelta computes the sparse edit list that turns base into vals
// (same length) as raw bytes. The second result is false when the
// encoding is not worth it — the delta would be at least as large as
// storing vals densely — or when the lengths differ.
func EncodeDelta(base, vals []float64) ([]byte, bool) {
	if len(base) != len(vals) {
		return nil, false
	}
	dense := 8 * len(vals)
	var out []byte
	var hdr [deltaHeader]byte
	i := 0
	for i < len(vals) {
		if math.Float64bits(vals[i]) == math.Float64bits(base[i]) {
			i++
			continue
		}
		j := i
		for j < len(vals) && math.Float64bits(vals[j]) != math.Float64bits(base[j]) {
			j++
		}
		binary.LittleEndian.PutUint32(hdr[0:], uint32(i))
		binary.LittleEndian.PutUint32(hdr[4:], uint32(j-i))
		out = append(out, hdr[:]...)
		out = append(out, Bytes(vals[i:j])...)
		if len(out) >= dense {
			return nil, false // delta lost; store densely
		}
		i = j
	}
	return out, true
}

// ApplyDelta replays a sparse edit list onto a copy of base.
func ApplyDelta(base []float64, delta []byte) ([]float64, error) {
	out := make([]float64, len(base))
	copy(out, base)
	for off := 0; off < len(delta); {
		if off+deltaHeader > len(delta) {
			return nil, fmt.Errorf("chunk: truncated delta header at offset %d", off)
		}
		idx := int(binary.LittleEndian.Uint32(delta[off:]))
		cnt := int(binary.LittleEndian.Uint32(delta[off+4:]))
		off += deltaHeader
		if cnt <= 0 || off+8*cnt > len(delta) {
			return nil, fmt.Errorf("chunk: truncated delta run at offset %d", off)
		}
		if idx < 0 || idx+cnt > len(out) {
			return nil, fmt.Errorf("chunk: delta run [%d,%d) outside tensor of %d elements", idx, idx+cnt, len(out))
		}
		vals, err := Floats(delta[off : off+8*cnt])
		if err != nil {
			return nil, err
		}
		copy(out[idx:], vals)
		off += 8 * cnt
	}
	return out, nil
}
