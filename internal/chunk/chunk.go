// Package chunk provides the low-level content-addressing primitives the
// storage stack is built on: fixed-size chunking of tensor data,
// SHA-256 addressing, bit-exact float64 (de)serialization, and the
// sparse delta codec that stores a fine-tuned tensor as edits against
// its base. The package sits below internal/cas (the refcounted chunk
// store, whose packs carry models between hubs) and internal/graph
// (whose SOMX reference encoding embeds chunk tables), so it depends on
// neither.
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
	"unsafe"
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

// ValidHash reports whether s is syntactically a chunk address: HashLen
// lowercase hex digits, the only spelling Hash produces.
func ValidHash(s string) bool {
	if len(s) != HashLen {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Bytes encodes float64 values as little-endian bytes, bit-exactly.
func Bytes(vals []float64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

// decode fills dst from little-endian bytes; len(src) is 8*len(dst).
func decode(dst []float64, src []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

// littleEndian reports whether a float64's memory is already its
// little-endian encoding, so that Split can hash the values in place.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// view returns the bytes Bytes(vals) would, without copying: on a
// little-endian host, the values' own memory. The view aliases vals and
// is read-only; its capacity ends with vals, so an append reallocates.
func view(vals []float64) []byte {
	if !littleEndian {
		return Bytes(vals)
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), 8*len(vals))
}

// Split cuts raw tensor data into content-addressed chunks of at most
// size elements and returns the ordered chunk list. The callback
// receives each chunk's address and raw bytes exactly once per distinct
// offset (the caller decides whether it already holds the content).
// On a little-endian host those bytes are a view of vals itself, not a
// copy: they are read-only and change if vals does, so a caller that
// edits them, or keeps them while vals may change, copies them first.
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
		data := view(vals[lo:hi])
		h := Hash(data)
		hashes = append(hashes, h)
		if emit != nil {
			emit(h, data)
		}
	}
	return hashes
}

// Join reassembles tensor data from ordered chunk contents, checking
// that every chunk is a whole number of float64s and that the total
// element count matches want. Each byte is decoded once, straight into
// the one slice Join returns; the chunks are only read.
func Join(chunks [][]byte, want int) ([]float64, error) {
	// Size the result from the bytes in hand, never from want: want
	// comes from a decoded shape, which a hostile file sets freely.
	have := 0
	for i, data := range chunks {
		if len(data)%8 != 0 {
			return nil, fmt.Errorf("chunk %d: %d bytes is not a whole number of float64s", i, len(data))
		}
		have += len(data)
	}
	if have/8 != want {
		return nil, fmt.Errorf("chunk: reassembled %d elements, want %d", have/8, want)
	}
	out := make([]float64, have/8)
	at := 0
	for _, data := range chunks {
		decode(out[at:at+len(data)/8], data)
		at += len(data) / 8
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

// ApplyDelta replays a sparse edit list onto vals in place. On error
// vals is partly edited and must be discarded.
func ApplyDelta(vals []float64, delta []byte) error {
	for off := 0; off < len(delta); {
		if off+deltaHeader > len(delta) {
			return fmt.Errorf("chunk: truncated delta header at offset %d", off)
		}
		idx := int(binary.LittleEndian.Uint32(delta[off:]))
		cnt := int(binary.LittleEndian.Uint32(delta[off+4:]))
		off += deltaHeader
		if cnt <= 0 || off+8*cnt > len(delta) {
			return fmt.Errorf("chunk: truncated delta run at offset %d", off)
		}
		if idx < 0 || idx+cnt > len(vals) {
			return fmt.Errorf("chunk: delta run [%d,%d) outside tensor of %d elements", idx, idx+cnt, len(vals))
		}
		decode(vals[idx:idx+cnt], delta[off:off+8*cnt])
		off += 8 * cnt
	}
	return nil
}
