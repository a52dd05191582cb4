package cas

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"strings"
	"testing"

	"sommelier/internal/chunk"
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
	pack, err := EncodePack(nil, enc.Manifest, enc.Manifest.ChunkRefs(), encodedGet(enc))
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
		m, _, err := ReadPack(fx.pack)
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

// TestReadPackDoesNotAliasInput: the model ReadPack returns keeps no
// byte of its input — a client reads its next pack into the same
// buffer — so overwriting the input leaves the model re-encoding to
// the same pack and the same SOMX bytes.
func TestReadPackDoesNotAliasInput(t *testing.T) {
	for _, fx := range packFixtures(t) {
		in := append([]byte(nil), fx.pack...)
		m, _, err := ReadPack(in)
		if err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		for i := range in {
			in[i] = 0xa5
		}
		if !bytes.Equal(somxOf(t, m), somxOf(t, fx.model)) {
			t.Fatalf("%s: overwriting the pack changed the model read from it", fx.name)
		}
		if fx.delta {
			continue // re-packing without the base gives the dense form
		}
		if _, again := packOf(t, m, "", nil); !bytes.Equal(again, fx.pack) {
			t.Fatalf("%s: overwriting the pack changed the model's pack", fx.name)
		}
	}
}

// TestEncodePackAppends: EncodePack appends to dst and leaves what dst
// held before it alone, so a caller may render into a recycled buffer.
func TestEncodePackAppends(t *testing.T) {
	fx := packFixtures(t)[0]
	enc, err := Encode(fx.model, "", nil, packChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("held")
	dst := append(make([]byte, 0, len(prefix)+len(fx.pack)), prefix...)
	out, err := EncodePack(dst, enc.Manifest, enc.Manifest.ChunkRefs(), encodedGet(enc))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[:len(prefix)], prefix) || !bytes.Equal(out[len(prefix):], fx.pack) {
		t.Fatal("EncodePack into a non-empty dst changed its prefix or the pack")
	}
	if &out[0] != &dst[:1][0] {
		t.Fatal("EncodePack reallocated a dst with room for the pack")
	}
}

// packParts splits a pack built by EncodePack into its manifest bytes
// and raw chunk payloads, for the rejection table to reassemble wrongly.
func packParts(t testing.TB, pack []byte) (man []byte, chunks [][]byte) {
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
	if _, _, err := ReadPack(good); err != nil {
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
	badManifest := append([]byte(nil), man...)
	badManifest[len(manifestMagicStem)] = '9' // "SOMXMF9\n"
	// The manifest spoiled where a pattern first occurs: the metadata
	// keys family < series; Dense_1's op, inputs and attribute mask
	// (units only, its int64 after it); and Dense_1's params B (one dim,
	// a dense tag and its address count after it) < W (two dims).
	spoil := func(old, new string) []byte {
		t.Helper()
		out := bytes.Replace(man, []byte(old), []byte(new), 1)
		if bytes.Equal(out, man) {
			t.Fatalf("fixture: manifest holds no %q to spoil", old)
		}
		return out
	}
	const paramB, paramW = "\x00\x00\x00\x01B\x00\x00\x00\x01", "\x00\x00\x00\x01W\x00\x00\x00\x02"
	at := bytes.Index(man, []byte(paramB)) + len(paramB) + 8
	badTag := append([]byte(nil), man...)
	badTag[at] = 2
	addrsPastEnd := append([]byte(nil), man...)
	binary.BigEndian.PutUint32(addrsPastEnd[at+1:], 0xffffffff)
	const dense1 = "Dense\x00\x00\x00\x01\x00\x00\x00\x05input\x00\x01"
	units := bytes.Index(man, []byte(dense1)) + len(dense1)
	zeroAttr := append([]byte(nil), man...)
	copy(zeroAttr[units:units+8], make([]byte, 8))
	unknownAttr := append([]byte(nil), man...)
	unknownAttr[units-2] = 0x10 // bit 12: past the last attribute

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
		{"flipped payload byte", flipped, "no manifest reference after"},
		{"missing chunk", assemblePack(man, append(append([][]byte(nil), chunks[:1]...), chunks[2:]...)), "carries"},
		{"missing last chunk", assemblePack(man, chunks[:len(chunks)-1]), "carries"},
		{"manifest alone", assemblePack(man, nil), "carries 0 of"},
		{"extra chunk", assemblePack(man, append(append([][]byte(nil), chunks...), stray[:])), "no manifest reference after"},
		{"duplicated record", assemblePack(man, append(append([][]byte(nil), chunks[:2]...), chunks[1:]...)), "no manifest reference after"},
		{"reordered records", assemblePack(man, append([][]byte{chunks[1], chunks[0]}, chunks[2:]...)), "no manifest reference after"},
		{"trailing garbage", append(append([]byte(nil), good...), "junk"...), "truncated"},
		{"invalid manifest", assemblePack(badManifest, chunks), "unsupported manifest format"},
		{"malformed manifest", assemblePack([]byte("{malformed"), chunks), "decoding manifest"},
		{"unsorted metadata keys", assemblePack(spoil("\x06series", "\x06aaaaaa"), chunks), "strictly ascending"},
		{"repeated metadata key", assemblePack(spoil("\x06series", "\x06family"), chunks), "strictly ascending"},
		{"unsorted param names", assemblePack(spoil(paramW, strings.Replace(paramW, "W", "A", 1)), chunks), "strictly ascending"},
		{"repeated param name", assemblePack(spoil(paramW, strings.Replace(paramW, "W", "B", 1)), chunks), "strictly ascending"},
		{"attribute present but zero", assemblePack(zeroAttr, chunks), "present but zero"},
		{"attribute past the last", assemblePack(unknownAttr, chunks), "attribute mask"},
		{"tag neither dense nor delta", assemblePack(badTag, chunks), "has tag 2"},
		{"address count past the end", assemblePack(addrsPastEnd, chunks), "4294967295 elements declared"},
		{"bytes after the manifest", assemblePack(append(append([]byte(nil), man...), 0), chunks), "bytes after the manifest"},
	}
	for _, tc := range cases {
		m, _, err := ReadPack(tc.in)
		if err == nil {
			t.Errorf("%s: accepted, hydrating %s", tc.name, m.Name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: rejected with %q, want mention of %q", tc.name, err, tc.want)
		}
		// A partial pack is a well-formed upload body: only ReadPack's
		// completeness check refuses it. DecodePack refuses the rest.
		partial := errors.Is(err, ErrMissingChunk)
		if _, _, derr := DecodePack(tc.in); (derr == nil) != partial {
			t.Errorf("%s: DecodePack answered %v, ReadPack %q", tc.name, derr, err)
		}
	}
}

// TestDecodePackTakesAnInOrderSubset: any in-order subset of the
// manifest's references decodes, each record keyed by its own hash, and
// the pack of the same subset is the same bytes.
func TestDecodePackTakesAnInOrderSubset(t *testing.T) {
	enc, err := Encode(buildModel(t, "psub", 5), "", nil, packChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	refs := enc.Manifest.ChunkRefs()
	if len(refs) < 3 {
		t.Fatalf("fixture has %d chunks, need at least 3", len(refs))
	}
	subsets := map[string][]string{
		"none":         nil,
		"first":        refs[:1],
		"last":         refs[len(refs)-1:],
		"every other":  nil,
		"all but last": refs[:len(refs)-1],
		"all":          refs,
	}
	for i := 0; i < len(refs); i += 2 {
		subsets["every other"] = append(subsets["every other"], refs[i])
	}
	for name, sub := range subsets {
		pack, err := EncodePack(nil, enc.Manifest, sub, encodedGet(enc))
		if err != nil {
			t.Fatal(err)
		}
		man, chunks, err := DecodePack(pack)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if man.ID() != enc.Manifest.ID() || len(chunks) != len(sub) {
			t.Fatalf("%s: decoded %s with %d records, want %s with %d", name, man.ID(), len(chunks), enc.Manifest.ID(), len(sub))
		}
		for _, h := range sub {
			if !bytes.Equal(chunks[h], enc.Chunks[h]) {
				t.Fatalf("%s: record %s decoded to other bytes", name, h[:12])
			}
		}
		again, err := EncodePack(nil, man, sub, func(h string) ([]byte, error) { return chunks[h], nil })
		if err != nil || !bytes.Equal(again, pack) {
			t.Fatalf("%s: re-encoding the decoded pack: %v, equal %t", name, err, bytes.Equal(again, pack))
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
	if _, err := EncodePack(nil, enc.Manifest, enc.Manifest.ChunkRefs(), encodedGet(enc)); !errors.Is(err, ErrMissingChunk) {
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
	fixtures := packFixtures(f)
	for _, fx := range fixtures {
		f.Add(fx.pack)
	}
	f.Add([]byte(packMagic))
	f.Add([]byte("{malformed"))
	// Partial packs, well-formed and not.
	man, chunks := packParts(f, fixtures[0].pack)
	var stray [8 * 4]byte
	f.Add(assemblePack(man, append(append([][]byte(nil), chunks[:1]...), chunks[2:]...))) // a skipped reference
	f.Add(assemblePack(man, nil))                                                         // the manifest alone
	f.Add(assemblePack(man, [][]byte{chunks[1], chunks[0]}))                              // reordered records
	f.Add(assemblePack(man, [][]byte{chunks[0], chunks[1], chunks[1]}))                   // a repeated record
	f.Add(assemblePack(man, [][]byte{chunks[0], stray[:]}))                               // a record no reference names
	f.Add(append(assemblePack(man, [][]byte{chunks[1]}), 0, 0))                           // trailing bytes

	f.Fuzz(func(t *testing.T, in []byte) {
		if man, chunks, err := DecodePack(in); err == nil {
			// An accepted pack is canonical: its records are in-order
			// references named by their own hashes, so the pack of the
			// same records is the input, byte for byte.
			var carried []string
			for _, h := range man.ChunkRefs() {
				if _, ok := chunks[h]; ok {
					carried = append(carried, h)
				}
			}
			if len(carried) != len(chunks) {
				t.Fatalf("DecodePack keyed %d records, %d of them manifest references", len(chunks), len(carried))
			}
			for h, c := range chunks {
				if chunk.Hash(c) != h {
					t.Fatalf("record keyed %s does not hash to its key", h)
				}
			}
			again, err := EncodePack(nil, man, carried, func(h string) ([]byte, error) { return chunks[h], nil })
			if err != nil || !bytes.Equal(again, in) {
				t.Fatalf("an accepted pack does not re-encode to itself: %v", err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, _, err := ReadPack(in)
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
		back, _, err := ReadPack(pack)
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
