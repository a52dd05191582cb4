package cas

import (
	"bytes"
	"testing"
)

// FuzzDecodeManifest: DecodeManifest never panics on arbitrary bytes,
// and a manifest it accepts passes Validate and survives
// EncodeManifest → DecodeManifest → EncodeManifest byte for byte (bytes
// rather than reflect.DeepEqual, because an empty list decodes as nil).
// An accepted input is already canonical, so it is its own re-encoding.
// Seeds are a dense and a delta manifest plus the raw garbage
// TestManifestValidateRejectsGarbage pins.
func FuzzDecodeManifest(f *testing.F) {
	encoded := func(man *Manifest) []byte {
		var buf bytes.Buffer
		if err := EncodeManifest(&buf, man); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	base := buildModel(f, "fbase", 5)
	dense, err := Encode(base, "", nil, 64)
	if err != nil {
		f.Fatal(err)
	}
	variant := base.Clone()
	variant.Name = "fvar"
	variant.Layers[1].Param("W").Data()[0] += 0.5
	delta, err := Encode(variant, "fbase@1", base, 64)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(encoded(dense.Manifest))
	f.Add(encoded(delta.Manifest))
	f.Add(rawManifest(1, addrSize))
	f.Add(rawManifest(0, addrSize)) // neither chunks nor delta
	f.Add(rawManifest(1, 5))        // an address cut short
	f.Add([]byte("{malformed"))

	f.Fuzz(func(t *testing.T, in []byte) {
		man, err := DecodeManifest(bytes.NewReader(in))
		if err != nil {
			return
		}
		if err := man.Validate(); err != nil {
			t.Fatalf("accepted manifest fails Validate: %v", err)
		}
		man.ChunkRefs() // walks every ref; must not panic either
		var canon, again bytes.Buffer
		if err := EncodeManifest(&canon, man); err != nil {
			t.Fatalf("re-encoding an accepted manifest: %v", err)
		}
		back, err := DecodeManifest(bytes.NewReader(canon.Bytes()))
		if err != nil {
			t.Fatalf("decoding a re-encoded manifest: %v", err)
		}
		if err := EncodeManifest(&again, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canon.Bytes(), again.Bytes()) || !bytes.Equal(canon.Bytes(), in) {
			t.Fatalf("round trip changed the manifest:\n in  %x\n 1st %x\n 2nd %x", in, canon.Bytes(), again.Bytes())
		}
	})
}
