package cas

import (
	"testing"

	"sommelier/internal/graph"
	"sommelier/internal/zoo"
)

// sameIdentityMeansSameBits checks the identity contract over every
// pair of tensors two encoded models hold: an equal TensorID means
// bit-identical values and shapes. It returns how many pairs had equal
// IDs, and how many had equal bits.
func sameIdentityMeansSameBits(t testing.TB, a, b *Encoded) (sameID, sameBits int) {
	t.Helper()
	ia, ib := a.Manifest.Identity(), b.Manifest.Identity()
	for _, la := range a.Model.Layers {
		for i, pa := range la.ParamNames() {
			ta := la.Params[pa]
			for _, lb := range b.Model.Layers {
				for j, pb := range lb.ParamNames() {
					tb := lb.Params[pb]
					equal := ta.Shape().Equal(tb.Shape()) && bitsEqual(ta.Data(), tb.Data())
					if equal {
						sameBits++
					}
					if ia[la.Name][i] != ib[lb.Name][j] {
						continue
					}
					sameID++
					if !equal {
						t.Fatalf("%s %s.%s and %s %s.%s share an identity but not their values",
							a.Manifest.ID(), la.Name, pa, b.Manifest.ID(), lb.Name, pb)
					}
				}
			}
		}
	}
	return sameID, sameBits
}

// TestIdentityOneSided: identity never equates different content, and
// it is what the storage layer already says. A frozen-trunk variant
// encoded dense or against its base shares its trunk tensors' IDs with
// the base's dense encoding; a sparse edit's delta-encoded matrices
// share none; the dense and the delta encoding of one edited content
// have different IDs (the miss the contract allows); and a manifest's
// identity survives the wire and hydration.
func TestIdentityOneSided(t *testing.T) {
	base := buildModel(t, "ident", 3)
	dense, err := Encode(base, "", nil, 64)
	if err != nil {
		t.Fatal(err)
	}
	frozen, err := zoo.Transfer(base, "frozen", 8, 100, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	edit, err := zoo.SparseEdit(base, "edit", 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	trunk := 0
	for _, l := range base.Layers {
		trunk += len(l.Params)
	}
	for _, tc := range []struct {
		m        *graph.Model
		against  *graph.Model
		shareMin int
	}{
		{frozen, nil, trunk - 2}, // all but the new head's W and B
		{frozen, base, trunk - 2},
		{edit, base, 1}, // the biases, never edited
	} {
		enc, err := Encode(tc.m, "ident@1", tc.against, 64)
		if err != nil {
			t.Fatal(err)
		}
		if same, _ := sameIdentityMeansSameBits(t, dense, enc); same < tc.shareMin {
			t.Fatalf("%s (base %v) shares %d tensor identities with its base, want ≥ %d",
				tc.m.Name, tc.against != nil, same, tc.shareMin)
		}
	}
	editDense, err := Encode(edit, "", nil, 64)
	if err != nil {
		t.Fatal(err)
	}
	editDelta, err := Encode(edit, "ident@1", base, 64)
	if err != nil {
		t.Fatal(err)
	}
	if same, bits := sameIdentityMeansSameBits(t, editDense, editDelta); same >= bits {
		t.Fatalf("dense and delta encodings of %s: %d equal identities for %d equal tensors; the delta ones should miss",
			edit.Name, same, bits)
	}
	data, err := EncodePack(nil, editDelta.Manifest, editDelta.Chunk)
	if err != nil {
		t.Fatal(err)
	}
	m, man, err := ReadPack(data)
	if err != nil {
		t.Fatal(err)
	}
	back := &Encoded{Model: m, Manifest: man}
	if same, bits := sameIdentityMeansSameBits(t, editDelta, back); same != bits {
		t.Fatalf("a pack's identity: %d equal identities for %d equal tensors", same, bits)
	}
}

// FuzzIdentitySparseEdit: whatever sparse edit a variant carries, and
// whether it is encoded dense or against its base, no two of its and
// its base's tensors share an identity unless they share every bit.
func FuzzIdentitySparseEdit(f *testing.F) {
	for _, seed := range []uint64{1, 2, 3} {
		f.Add(seed, uint8(0), 64, true)
		f.Add(seed, uint8(5), 64, false)
		f.Add(seed, uint8(40), 0, true)
	}
	base := buildModel(f, "fuzz", 9)
	f.Fuzz(func(t *testing.T, seed uint64, edits uint8, chunkSize int, delta bool) {
		if chunkSize < 0 || chunkSize > 1<<16 {
			chunkSize = 64
		}
		edit, err := zoo.SparseEdit(base, "fuzz-edit", int(edits), seed)
		if err != nil {
			t.Fatal(err)
		}
		against := (*graph.Model)(nil)
		if delta {
			against = base
		}
		a, err := Encode(base, "", nil, chunkSize)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Encode(edit, "fuzz@1", against, chunkSize)
		if err != nil {
			t.Fatal(err)
		}
		sameIdentityMeansSameBits(t, a, b)
		sameIdentityMeansSameBits(t, b, b)
	})
}
