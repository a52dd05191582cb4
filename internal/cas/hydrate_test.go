package cas

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"sync"
	"testing"

	"sommelier/internal/chunk"
	"sommelier/internal/graph"
	"sommelier/internal/zoo"
)

// hydrateForms are the two tensor forms a hydration rebuilds.
var hydrateForms = []struct {
	name  string
	delta bool
}{{"dense", false}, {"delta", true}}

// storeEncoded encodes m (against base when non-nil) and puts every
// chunk of the encoding into s.
func storeEncoded(t testing.TB, s *Store, m *graph.Model, baseID string, base *graph.Model, chunkSize int) *Encoded {
	t.Helper()
	enc, err := Encode(m, baseID, base, chunkSize)
	if err != nil {
		t.Fatal(err)
	}
	for h, data := range enc.Chunks {
		if err := s.Put(h, data); err != nil {
			t.Fatal(err)
		}
	}
	return enc
}

// fixtureModels builds a width-96 base model and returns it with its
// parameter bytes. With delta set it also returns a fine-tuned variant
// of it whose every weight matrix differs from the base's sparsely.
func fixtureModels(t testing.TB, delta bool) (base, variant *graph.Model, params int) {
	t.Helper()
	base, err := zoo.DenseResidualNet(zoo.Config{Name: "hbase", Seed: 3, Width: 96, Depth: 2, Series: "cas-hydrate"})
	if err != nil {
		t.Fatal(err)
	}
	base.Version = "1"
	for _, l := range base.Layers {
		for _, p := range l.Params {
			params += 8 * p.NumElements()
		}
	}
	if !delta {
		return base, nil, params
	}
	variant = base.Clone()
	variant.Name = "hvar"
	for _, l := range variant.Layers {
		if p := l.Param("W"); p != nil {
			d := p.Data()
			for i := 0; i < len(d); i += 97 {
				d[i] += 0.25
			}
		}
	}
	return base, variant, params
}

// hydrateFixture stores a width-96 model in a memory store and returns
// its manifest and parameter bytes. With delta set the stored model is
// a fine-tuned variant whose every weight matrix is a sparse delta
// against the base, which the store also holds.
func hydrateFixture(t testing.TB, delta bool) (*Store, *Manifest, int) {
	t.Helper()
	base, variant, params := fixtureModels(t, delta)
	s := NewMemory()
	enc := storeEncoded(t, s, base, "", nil, 0)
	if delta {
		enc = storeEncoded(t, s, variant, "hbase@1", base, 0)
		deltas := 0
		for _, lr := range enc.Manifest.Layers {
			for _, ref := range lr.Params {
				if ref.Delta != nil {
					deltas++
				}
			}
		}
		if deltas == 0 {
			t.Fatal("fixture: no tensor encoded as a delta")
		}
	}
	return s, enc.Manifest, params
}

// TestHydrateCopiesOnce: hydration copies each parameter byte once,
// from the chunk into the tensor, so a hydration allocates little more
// than the model's parameter bytes — dense, or replayed from a delta.
func TestHydrateCopiesOnce(t *testing.T) {
	for _, form := range hydrateForms {
		t.Run(form.name, func(t *testing.T) {
			s, man, params := hydrateFixture(t, form.delta)
			const n = 20
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < n; i++ {
				if _, err := Hydrate(man, s.Get); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			ratio := float64(after.TotalAlloc-before.TotalAlloc) / n / float64(params)
			t.Logf("%d parameter bytes, %.2fx allocated per hydration", params, ratio)
			if ratio > 1.25 {
				t.Fatalf("a hydration allocates %.2fx the model's %d parameter bytes, want <= 1.25x", ratio, params)
			}
		})
	}
}

// TestGetLendsReadOnly: a memory store's Get lends the bytes it holds
// with their capacity clipped, so an append to one result reallocates
// instead of writing next to the chunk, and an edited copy of a result
// leaves the stored chunk as it was. Put keeps its own copy.
func TestGetLendsReadOnly(t *testing.T) {
	s := NewMemory()
	// 40 bytes: Put's copy lands in a 48-byte size class, so an
	// unclipped result would have room to append in place.
	data := chunk.Bytes([]float64{1, 2, 3, 4, 5})
	h := chunk.Hash(data)
	if err := s.Put(h, data); err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0xff
	get := func() []byte {
		t.Helper()
		got, err := s.Get(h)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	if got := get(); cap(got) != len(got) {
		t.Fatalf("Get lends %d bytes with capacity %d", len(got), cap(got))
	}
	a := append(get(), 0xff)
	b := append(get(), 0x00)
	if a[len(a)-1] != 0xff || b[len(b)-1] != 0x00 {
		t.Fatal("appends to two Get results share a backing array")
	}
	cp := append([]byte(nil), get()...)
	cp[0] ^= 0xff
	if got := chunk.Hash(get()); got != h {
		t.Fatalf("after Put's input, an append and a copy were edited, Get hashes to %s", short(got))
	}
}

// deltaParam finds the manifest's one delta tensor.
func deltaParam(t *testing.T, man *Manifest) (map[string]TensorRef, string) {
	t.Helper()
	for _, lr := range man.Layers {
		for pname, ref := range lr.Params {
			if ref.Delta != nil {
				return lr.Params, pname
			}
		}
	}
	t.Fatal("fixture: no delta tensor")
	return nil, ""
}

// deltaStream returns the manifest's one delta stream, held in one chunk.
func deltaStream(t *testing.T, s *Store, man *Manifest) []byte {
	t.Helper()
	params, pname := deltaParam(t, man)
	if n := len(params[pname].Delta.Chunks); n != 1 {
		t.Fatalf("fixture: delta stream in %d chunks", n)
	}
	stream, err := s.Get(params[pname].Delta.Chunks[0])
	if err != nil {
		t.Fatal(err)
	}
	return stream
}

// setDeltaStream stores parts and points the manifest's one delta
// tensor at them as its edit stream.
func setDeltaStream(t *testing.T, s *Store, man *Manifest, parts ...[]byte) {
	t.Helper()
	params, pname := deltaParam(t, man)
	hashes := make([]string, len(parts))
	for i, part := range parts {
		hashes[i] = chunk.Hash(part)
		if err := s.Put(hashes[i], part); err != nil {
			t.Fatal(err)
		}
	}
	ref := params[pname]
	params[pname] = TensorRef{Shape: ref.Shape, Delta: &DeltaRef{Base: ref.Delta.Base, Chunks: hashes}}
}

// deltaFixture stores a model with one delta tensor of two edit runs,
// three values each, against a dense base the store also holds.
func deltaFixture(t *testing.T) (*Store, *Manifest, *graph.Model) {
	t.Helper()
	base := buildModel(t, "sbase", 5)
	variant := base.Clone()
	variant.Name = "svar"
	d := variant.Layers[3].Param("W").Data()
	for _, i := range []int{1, 2, 3, 20, 21, 22} {
		d[i] += 0.5
	}
	s := NewMemory()
	storeEncoded(t, s, base, "", nil, packChunkSize)
	enc := storeEncoded(t, s, variant, "sbase@1", base, packChunkSize)
	return s, enc.Manifest, variant
}

// TestHydrateSplitDeltaStream: a delta stream over two chunks, cut in
// the middle of a run's values, hydrates bit-identical to the source.
func TestHydrateSplitDeltaStream(t *testing.T) {
	s, man, variant := deltaFixture(t)
	stream := deltaStream(t, s, man)
	// The first run is a header and three values: cut after the first
	// value and half the second.
	at := 8 + 8 + 4
	setDeltaStream(t, s, man, stream[:at], stream[at:])
	got, err := Hydrate(man, s.Get)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(somxOf(t, got), somxOf(t, variant)) {
		t.Fatal("a split delta stream hydrated a different model")
	}
}

// TestHydrateRejectsCorruptDelta: a delta whose second run lies outside
// the tensor fails the hydration after the first run was replayed;
// Hydrate returns no model and every chunk it read is unchanged.
func TestHydrateRejectsCorruptDelta(t *testing.T) {
	s, man, _ := deltaFixture(t)
	stream := deltaStream(t, s, man)
	bad := append([]byte(nil), stream...)
	binary.LittleEndian.PutUint32(bad[8+8*3:], 1<<20) // the second run's index
	setDeltaStream(t, s, man, bad)
	m, err := Hydrate(man, s.Get)
	if err == nil || m != nil || !strings.Contains(err.Error(), "outside tensor") {
		t.Fatalf("corrupt delta: model %v, err %v; want no model and an out-of-tensor error", m, err)
	}
	for _, h := range man.ChunkRefs() {
		data, err := s.Get(h)
		if err != nil {
			t.Fatal(err)
		}
		if chunk.Hash(data) != h {
			t.Fatalf("a failed delta replay edited chunk %s", short(h))
		}
	}
}

// TestHydrateRacesRelease: hydrations of one model run while another
// model sharing its chunks is released and re-stored. Shared chunks
// keep a reference throughout, every hydration succeeds bit-exact, and
// under -race no lent chunk is written.
func TestHydrateRacesRelease(t *testing.T) {
	base := buildModel(t, "rbase", 11)
	variant, err := zoo.Transfer(base, "rvar", 8, 100, 0, 99)
	if err != nil {
		t.Fatal(err)
	}
	variant.Version = "1"
	s := NewMemory()
	var encs []*Encoded
	for _, m := range []*graph.Model{base, variant} {
		enc := storeEncoded(t, s, m, "", nil, packChunkSize)
		if err := s.AddRefs(enc.Manifest.ChunkRefs()); err != nil {
			t.Fatal(err)
		}
		encs = append(encs, enc)
	}
	want := somxOf(t, base)
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				m, err := Hydrate(encs[0].Manifest, s.Get)
				var got bytes.Buffer
				if err == nil {
					err = graph.Encode(&got, m)
				}
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Error("hydration raced a release into a different model")
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		refs := encs[1].Manifest.ChunkRefs()
		for i := 0; i < 30; i++ {
			s.Release(refs)
			for h, data := range encs[1].Chunks {
				if err := s.Put(h, data); err != nil {
					t.Error(err)
					return
				}
			}
			if err := s.AddRefs(refs); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}

// BenchmarkHydrate rebuilds a width-96 model from a memory store:
// dense, and as sparse deltas against a base. B/op is the gate's
// quantity — TestHydrateCopiesOnce bounds it by the parameter bytes.
func BenchmarkHydrate(b *testing.B) {
	for _, form := range hydrateForms {
		b.Run(form.name, func(b *testing.B) {
			s, man, params := hydrateFixture(b, form.delta)
			b.SetBytes(int64(params))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Hydrate(man, s.Get); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestEncodeAddressesTensorsInPlace: Encode hashes each tensor where it
// lies instead of copying it into chunk bytes first, so encoding a
// dense model with no base allocates only the manifest and the chunk
// map — well under a tenth of the model's parameter bytes, where a
// copy per chunk is the whole of them.
func TestEncodeAddressesTensorsInPlace(t *testing.T) {
	m, _, params := fixtureModels(t, false)
	const n = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if _, err := Encode(m, "", nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / n / float64(params)
	t.Logf("%d parameter bytes, %.3fx allocated per encode", params, ratio)
	if ratio > 0.1 {
		t.Fatalf("an encode allocates %.2fx the model's %d parameter bytes, want < 0.1x", ratio, params)
	}
}

// BenchmarkEncode chunk-encodes a width-96 model: dense with no base,
// and as a fine-tuned variant against its base (bit-identical tensors
// become base references, sparsely edited ones deltas).
func BenchmarkEncode(b *testing.B) {
	for _, form := range hydrateForms {
		b.Run(form.name, func(b *testing.B) {
			base, variant, params := fixtureModels(b, form.delta)
			m, baseID := base, ""
			if form.delta {
				m, baseID = variant, "hbase@1"
			} else {
				base = nil
			}
			b.SetBytes(int64(params))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Encode(m, baseID, base, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
