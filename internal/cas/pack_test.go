package cas

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"strings"
	"testing"

	"sommelier/internal/graph"
	"sommelier/internal/tensor"
)

// packChunkSize keeps fixture tensors several chunks long.
const packChunkSize = 64

// packOf encodes m (against base when non-nil) and renders the pack.
func packOf(t testing.TB, m *graph.Model, baseID string, base *graph.Model) (*Encoded, []byte) {
	t.Helper()
	enc, err := Encode(m, baseID, base, packChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	pack, err := EncodePack(enc.Manifest, encodedGet(enc))
	if err != nil {
		t.Fatal(err)
	}
	return enc, pack
}

func encodedGet(enc *Encoded) func(string) ([]byte, error) {
	return func(h string) ([]byte, error) {
		data, ok := enc.Chunks[h]
		if !ok {
			return nil, ErrMissingChunk
		}
		return data, nil
	}
}

// packFixture is one model, how it was encoded, and its pack.
type packFixture struct {
	name  string
	model *graph.Model
	delta bool // encoded against a base: the manifest carries a Delta ref
	pack  []byte
}

// packFixtures are the shapes a pack has to carry: dense tensors, a
// delta against a base, a zero-element tensor (one empty chunk) and a
// chunk list two tensors share.
func packFixtures(t testing.TB) []packFixture {
	t.Helper()
	base := buildModel(t, "pbase", 5)
	_, densePack := packOf(t, base, "", nil)

	variant := base.Clone()
	variant.Name = "pvar"
	variant.Layers[3].Param("W").Data()[0] += 0.5
	enc, deltaPack := packOf(t, variant, "pbase@1", base)
	if enc.Manifest.Layers[3].Params["W"].Delta == nil {
		t.Fatal("fixture: the edited tensor did not encode as a delta")
	}

	empty := base.Clone()
	empty.Name = "pempty"
	empty.Layers[2].Params = map[string]*tensor.Tensor{"z": tensor.FromSlice(nil, 0)}
	_, emptyPack := packOf(t, empty, "", nil)

	shared := base.Clone()
	shared.Name = "pshared"
	copy(shared.Layers[5].Param("W").Data(), shared.Layers[3].Param("W").Data())
	enc, sharedPack := packOf(t, shared, "", nil)
	if a, b := enc.Manifest.Layers[3].Params["W"].Chunks, enc.Manifest.Layers[5].Params["W"].Chunks; strings.Join(a, "") != strings.Join(b, "") {
		t.Fatal("fixture: the two tensors do not share their chunks")
	}
	return []packFixture{
		{"dense", base, false, densePack},
		{"delta", variant, true, deltaPack},
		{"zero-element", empty, false, emptyPack},
		{"shared-chunk", shared, false, sharedPack},
	}
}

func somxOf(t testing.TB, m *graph.Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.Encode(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPackRoundTripIsByteExact: every fixture shape survives
// EncodePack → ReadPack with the model's SOMX encoding unchanged — a
// delta manifest included, since the pack carries the stored manifest —
// and packing the hydrated model the same way gives the same pack.
func TestPackRoundTripIsByteExact(t *testing.T) {
	for _, fx := range packFixtures(t) {
		m, err := ReadPack(fx.pack)
		if err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		if !bytes.Equal(somxOf(t, m), somxOf(t, fx.model)) {
			t.Fatalf("%s: the pack hydrates to a different model", fx.name)
		}
		if fx.delta {
			continue // re-packing without the base gives the dense form
		}
		if _, again := packOf(t, m, "", nil); !bytes.Equal(again, fx.pack) {
			t.Fatalf("%s: re-packing the hydrated model gives different bytes", fx.name)
		}
	}
}

// packParts splits a pack built by EncodePack into its manifest bytes
// and raw chunk payloads, for the rejection table to reassemble wrongly.
func packParts(t *testing.T, pack []byte) (man []byte, chunks [][]byte) {
	t.Helper()
	rest := pack[len(packMagic):]
	man, rest, err := packRecord(rest)
	if err != nil {
		t.Fatal(err)
	}
	for len(rest) > 0 {
		var c []byte
		if c, rest, err = packRecord(rest); err != nil {
			t.Fatal(err)
		}
		chunks = append(chunks, c)
	}
	return man, chunks
}

func assemblePack(man []byte, chunks [][]byte) []byte {
	out := []byte(packMagic)
	out = binary.BigEndian.AppendUint32(out, uint32(len(man)))
	out = append(out, man...)
	for _, c := range chunks {
		out = binary.BigEndian.AppendUint32(out, uint32(len(c)))
		out = append(out, c...)
	}
	return out
}

// TestReadPackRejects pins one rejection per way a pack can be wrong.
// The flipped-byte row is the one that depends on ReadPack deriving
// addresses itself: trust the record order instead and the flipped
// chunk hydrates, silently, into different weights.
func TestReadPackRejects(t *testing.T) {
	good := packFixtures(t)[0].pack
	if _, err := ReadPack(good); err != nil {
		t.Fatalf("the unmodified pack is rejected: %v", err)
	}
	man, chunks := packParts(t, good)
	if len(chunks) < 3 {
		t.Fatalf("fixture has %d chunks, need at least 3", len(chunks))
	}
	firstRecord := len(packMagic) + packLenSize + len(man)
	flipped := append([]byte(nil), good...)
	flipped[firstRecord+packLenSize+3] ^= 0x01
	pastEnd := append([]byte(nil), good...)
	binary.BigEndian.PutUint32(pastEnd[firstRecord:], uint32(len(good)))
	hugeManifest := append([]byte(nil), good...)
	binary.BigEndian.PutUint32(hugeManifest[len(packMagic):], 0xffffffff)
	badManifest := bytes.Replace(man, []byte(`"format":1`), []byte(`"format":9`), 1)
	if bytes.Equal(badManifest, man) {
		t.Fatal("fixture: manifest has no format field to spoil")
	}
	var stray [8 * 4]byte // a well-formed chunk nobody references

	cases := []struct {
		name string
		in   []byte
		want string
	}{
		{"empty", nil, "magic"},
		{"truncated header", good[:5], "magic"},
		{"wrong magic", append([]byte("SOMXPK2\n"), good[len(packMagic):]...), "magic"},
		{"truncated manifest length", good[:len(packMagic)+2], "pack manifest: truncated"},
		{"truncated manifest", good[:firstRecord-10], "pack manifest: truncated"},
		{"manifest length past the end", hugeManifest, "pack manifest: truncated"},
		{"truncated record length", good[:firstRecord+2], "record 1 of"},
		{"truncated record", good[:len(good)-5], "truncated"},
		{"record length past the end", pastEnd, "truncated"},
		{"flipped payload byte", flipped, "does not carry"},
		{"missing chunk", assemblePack(man, append(append([][]byte(nil), chunks[:1]...), chunks[2:]...)), "does not carry"},
		{"missing last chunk", assemblePack(man, chunks[:len(chunks)-1]), "truncated"},
		{"extra chunk", assemblePack(man, append(append([][]byte(nil), chunks...), stray[:])), "after the last referenced chunk"},
		{"duplicated record", assemblePack(man, append(append([][]byte(nil), chunks[:2]...), chunks[1:]...)), "does not carry"},
		{"reordered records", assemblePack(man, append([][]byte{chunks[1], chunks[0]}, chunks[2:]...)), "does not carry"},
		{"trailing garbage", append(append([]byte(nil), good...), "junk"...), "after the last referenced chunk"},
		{"invalid manifest", assemblePack(badManifest, chunks), "unsupported manifest format"},
		{"malformed manifest", assemblePack([]byte("{malformed"), chunks), "decoding manifest"},
	}
	for _, tc := range cases {
		m, err := ReadPack(tc.in)
		if err == nil {
			t.Errorf("%s: accepted, hydrating %s", tc.name, m.Name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: rejected with %q, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// TestEncodePackPropagatesMissingChunk: a store that cannot produce a
// referenced chunk fails the pack with the store's error intact.
func TestEncodePackPropagatesMissingChunk(t *testing.T) {
	enc, err := Encode(buildModel(t, "pmiss", 2), "", nil, packChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	delete(enc.Chunks, enc.Manifest.ChunkRefs()[0])
	if _, err := EncodePack(enc.Manifest, encodedGet(enc)); !errors.Is(err, ErrMissingChunk) {
		t.Fatalf("EncodePack over a store missing a chunk: %v, want ErrMissingChunk", err)
	}
}

// FuzzReadPack: ReadPack never panics on arbitrary bytes and never
// allocates more than a small multiple of what it was handed (lengths
// in the input size nothing until checked against the bytes behind
// them; the hydrated tensors are counted because a manifest may
// legitimately reference one chunk from many tensors). A pack it
// accepts hydrates to a model whose own pack reads back to the same
// model and re-encodes byte for byte.
func FuzzReadPack(f *testing.F) {
	for _, fx := range packFixtures(f) {
		f.Add(fx.pack)
	}
	f.Add([]byte(packMagic))
	f.Add([]byte("{malformed"))

	f.Fuzz(func(t *testing.T, in []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := ReadPack(in)
		runtime.ReadMemStats(&after)
		budget := uint64(len(in))
		if err == nil {
			budget += 8 * uint64(m.ParamCount())
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64*budget+1<<20 {
			t.Fatalf("ReadPack allocated %d bytes for a %d-byte input", grew, len(in))
		}
		if err != nil {
			return
		}
		_, pack := packOf(t, m, "", nil)
		back, err := ReadPack(pack)
		if err != nil {
			t.Fatalf("the pack of an accepted model is rejected: %v", err)
		}
		if !bytes.Equal(somxOf(t, back), somxOf(t, m)) {
			t.Fatal("pack round trip changed the model")
		}
		if _, again := packOf(t, back, "", nil); !bytes.Equal(again, pack) {
			t.Fatal("re-encoded pack is not byte-identical")
		}
	})
}
