package cas

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"sommelier/internal/chunk"
	"sommelier/internal/graph"
	"sommelier/internal/zoo"
)

func buildModel(t testing.TB, name string, seed uint64) *graph.Model {
	t.Helper()
	m, err := zoo.DenseResidualNet(zoo.Config{Name: name, Seed: seed, Width: 24, Depth: 2, Series: "cas-test"})
	if err != nil {
		t.Fatal(err)
	}
	m.Version = "1"
	return m
}

func TestEncodeHydrateRoundTripIsByteExact(t *testing.T) {
	m := buildModel(t, "round", 7)
	var before bytes.Buffer
	if err := graph.Encode(&before, m); err != nil {
		t.Fatal(err)
	}

	enc, err := Encode(m, "", nil, 64)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Hydrate(enc.Manifest, func(h string) ([]byte, error) {
		data, ok := enc.Chunks[h]
		if !ok {
			return nil, errors.New("chunk not in encoding")
		}
		return data, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var after bytes.Buffer
	if err := graph.Encode(&after, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("hydrated model's encoding differs from the pre-chunking encoding")
	}
}

func TestEncodeIsDeterministic(t *testing.T) {
	m := buildModel(t, "det", 3)
	a, err := Encode(m, "", nil, 64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(m.Clone(), "", nil, 64)
	if err != nil {
		t.Fatal(err)
	}
	var ma, mb bytes.Buffer
	if err := EncodeManifest(&ma, a.Manifest); err != nil {
		t.Fatal(err)
	}
	if err := EncodeManifest(&mb, b.Manifest); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ma.Bytes(), mb.Bytes()) {
		t.Fatal("same model produced different manifests")
	}
	ra, rb := a.Manifest.ChunkRefs(), b.Manifest.ChunkRefs()
	if len(ra) != len(rb) {
		t.Fatal("chunk ref sets differ")
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatal("chunk refs differ or are unsorted")
		}
	}
}

func TestEncodeDedupsAgainstBase(t *testing.T) {
	base := buildModel(t, "base", 11)
	variant, err := zoo.Transfer(base, "variant", 8, 100, 0, 99)
	if err != nil {
		t.Fatal(err)
	}
	variant.Version = "1"

	be, err := Encode(base, "", nil, 64)
	if err != nil {
		t.Fatal(err)
	}
	ve, err := Encode(variant, "base@1", base, 64)
	if err != nil {
		t.Fatal(err)
	}
	if ve.Manifest.BaseID != "base@1" {
		t.Fatalf("BaseID = %q", ve.Manifest.BaseID)
	}

	baseRefs := make(map[string]bool)
	for _, h := range be.Manifest.ChunkRefs() {
		baseRefs[h] = true
	}
	fresh := 0
	for _, h := range ve.Manifest.ChunkRefs() {
		if !baseRefs[h] {
			fresh++
		}
	}
	// A fully frozen trunk means only the fresh head introduces chunks.
	if fresh >= len(ve.Manifest.ChunkRefs())/2 {
		t.Fatalf("frozen-trunk variant introduced %d/%d fresh chunks; dedup is not happening",
			fresh, len(ve.Manifest.ChunkRefs()))
	}

	// Hydration of the deduped encoding is still bit-exact.
	all := map[string][]byte{}
	for h, d := range be.Chunks {
		all[h] = d
	}
	for h, d := range ve.Chunks {
		all[h] = d
	}
	got, err := Hydrate(ve.Manifest, func(h string) ([]byte, error) { return all[h], nil })
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(somxOf(t, got), somxOf(t, variant)) {
		t.Fatal("deduped hydration changed the model")
	}
}

func TestEncodeDeltaAgainstBase(t *testing.T) {
	base := buildModel(t, "dbase", 5)
	variant := base.Clone()
	variant.Name = "dvar"
	// Sparse edit: nudge a handful of elements in one trunk tensor.
	for _, l := range variant.Layers {
		if p := l.Param("W"); p != nil {
			d := p.Data()
			for i := 0; i < len(d) && i < 3; i++ {
				d[i] += 0.5
			}
			break
		}
	}

	ve, err := Encode(variant, "dbase@1", base, 64)
	if err != nil {
		t.Fatal(err)
	}
	deltas := 0
	for _, l := range ve.Manifest.Layers {
		for _, ref := range l.Params {
			if ref.Delta != nil {
				deltas++
			}
		}
	}
	if deltas != 1 {
		t.Fatalf("delta-encoded tensors = %d, want 1", deltas)
	}
	got, err := Hydrate(ve.Manifest, func(h string) ([]byte, error) {
		if d, ok := ve.Chunks[h]; ok {
			return d, nil
		}
		return nil, errors.New("missing chunk")
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(somxOf(t, got), somxOf(t, variant)) {
		t.Fatal("delta hydration changed the model")
	}
}

func TestStoreRefcountGC(t *testing.T) {
	for _, mode := range []string{"memory", "dir"} {
		t.Run(mode, func(t *testing.T) {
			var s *Store
			var err error
			if mode == "memory" {
				s = NewMemory()
			} else if s, err = OpenDir(t.TempDir()); err != nil {
				t.Fatal(err)
			}
			data := chunk.Bytes([]float64{1, 2, 3})
			h := chunk.Hash(data)
			if err := s.Put(h, data); err != nil {
				t.Fatal(err)
			}
			if err := s.Put(h, data); err != nil {
				t.Fatal(err) // idempotent
			}
			st := s.Stats()
			if st.Chunks != 1 || st.DedupHits != 1 || st.Puts != 2 {
				t.Fatalf("stats = %+v", st)
			}
			if err := s.AddRefs([]string{h, h}); err != nil {
				t.Fatal(err)
			}
			s.Release([]string{h})
			if !s.Has(h) {
				t.Fatal("chunk GC'd while still referenced")
			}
			s.Release([]string{h})
			if s.Has(h) {
				t.Fatal("zero-ref chunk survived release")
			}
			if _, err := s.Get(h); !errors.Is(err, ErrMissingChunk) {
				t.Fatalf("Get after GC = %v, want ErrMissingChunk", err)
			}
		})
	}
}

func TestStorePutRejectsWrongHash(t *testing.T) {
	s := NewMemory()
	data := chunk.Bytes([]float64{9})
	if err := s.Put(chunk.Hash([]byte("other")), data); err == nil {
		t.Fatal("mismatched content accepted")
	}
	if err := s.AddRefs([]string{chunk.Hash(data)}); !errors.Is(err, ErrMissingChunk) {
		t.Fatalf("AddRefs on absent chunk = %v", err)
	}
}

func TestDirStoreDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	data := chunk.Bytes([]float64{4, 5, 6, 7})
	h := chunk.Hash(data)
	if err := s.Put(h, data); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, h[:2], h), []byte("garbage!"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(h); !errors.Is(err, ErrCorruptChunk) {
		t.Fatalf("Get of corrupt chunk = %v, want ErrCorruptChunk", err)
	}
}

func TestDirStoreReopenAndSweep(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	keep := chunk.Bytes([]float64{1})
	orphan := chunk.Bytes([]float64{2})
	hk, ho := chunk.Hash(keep), chunk.Hash(orphan)
	if err := s.Put(hk, keep); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(ho, orphan); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Has(hk) || !s2.Has(ho) {
		t.Fatal("reopen lost chunks")
	}
	if err := s2.AddRefs([]string{hk}); err != nil {
		t.Fatal(err)
	}
	dead := s2.Sweep()
	if len(dead) != 1 || dead[0] != ho {
		t.Fatalf("Sweep = %v, want [%s]", dead, ho)
	}
	if s2.Has(ho) || !s2.Has(hk) {
		t.Fatal("sweep removed the wrong chunk")
	}
	if _, err := os.Stat(filepath.Join(dir, ho[:2], ho)); !os.IsNotExist(err) {
		t.Fatal("swept chunk file still on disk")
	}
}

func TestStoreConcurrentPutGet(t *testing.T) {
	s := NewMemory()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 32; i++ {
				data := chunk.Bytes([]float64{float64(i % 4)})
				h := chunk.Hash(data)
				if err := s.Put(h, data); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Get(h); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := s.Stats().Chunks; got != 4 {
		t.Fatalf("distinct chunks = %d, want 4", got)
	}
}

func TestMissing(t *testing.T) {
	m := buildModel(t, "miss", 2)
	enc, err := Encode(m, "", nil, 64)
	if err != nil {
		t.Fatal(err)
	}
	s := NewMemory()
	missing := Missing(enc.Manifest, s.Has)
	if len(missing) != len(enc.Manifest.ChunkRefs()) {
		t.Fatal("empty store should miss everything")
	}
	for _, h := range missing {
		if err := s.Put(h, enc.Chunks[h]); err != nil {
			t.Fatal(err)
		}
	}
	if left := Missing(enc.Manifest, s.Has); len(left) != 0 {
		t.Fatalf("still missing %d after upload", len(left))
	}
}

func TestManifestValidateRejectsGarbage(t *testing.T) {
	man := &Manifest{Format: ManifestFormat, Name: "x", Version: "1", Layers: []LayerRef{{
		Name: "l", Op: graph.OpDense,
		Params: map[string]TensorRef{"W": {Shape: []int{2, 2}, Chunks: []string{"nothex"}}},
	}}}
	if err := man.Validate(); err == nil {
		t.Fatal("invalid chunk address accepted")
	}
	man.Layers[0].Params["W"] = TensorRef{Shape: []int{2, 2}}
	if err := man.Validate(); err == nil {
		t.Fatal("tensor with neither chunks nor delta accepted")
	}
	var buf bytes.Buffer
	buf.WriteString("{malformed")
	if _, err := DecodeManifest(&buf); err == nil {
		t.Fatal("malformed manifest decoded")
	}
}
