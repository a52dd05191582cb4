package cas

import (
	"bytes"
	"testing"

	"sommelier/internal/graph"
)

// FuzzDecodeManifest: DecodeManifest never panics on arbitrary bytes,
// and a manifest it accepts passes Validate and survives
// EncodeManifest → DecodeManifest → EncodeManifest byte for byte (bytes
// rather than reflect.DeepEqual, because omitempty folds `"inputs":[]`
// into an absent field). Seeds are a dense and a delta manifest plus
// the garbage TestManifestValidateRejectsGarbage pins.
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
	garbage := &Manifest{Format: ManifestFormat, Name: "x", Version: "1", Layers: []LayerRef{{
		Name: "l", Op: graph.OpDense,
		Params: map[string]TensorRef{"W": {Shape: []int{2, 2}, Chunks: []string{"nothex"}}},
	}}}
	f.Add(encoded(garbage))
	garbage.Layers[0].Params["W"] = TensorRef{Shape: []int{2, 2}} // neither chunks nor delta
	f.Add(encoded(garbage))
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
		if !bytes.Equal(canon.Bytes(), again.Bytes()) {
			t.Fatalf("round trip changed the manifest:\n 1st %s\n 2nd %s", canon.Bytes(), again.Bytes())
		}
	})
}
