package hub

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"sommelier/internal/chunk"
	"sommelier/internal/faults"
	"sommelier/internal/graph"
	"sommelier/internal/repo"
	"sommelier/internal/zoo"
)

// hubOver serves store and returns a client that caches one model, so
// a Load of anything but the previous ID goes to the wire.
func hubOver(t testing.TB, store repo.Store) (*Client, *countingTransport) {
	t.Helper()
	srv, err := NewServer(store)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	rt := &countingTransport{inner: ts.Client().Transport}
	c, err := NewClient(ts.URL, &http.Client{Transport: rt}, WithCacheCap(1))
	if err != nil {
		t.Fatal(err)
	}
	return c, rt
}

func somxBytes(t testing.TB, m *graph.Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.Encode(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// packCorpus is one model of each zoo family plus a fine-tuned series
// a repository stores as delta refs and shared trunk chunks.
func packCorpus(t testing.TB) []*graph.Model {
	t.Helper()
	var models []*graph.Model
	for i, family := range zoo.Families() {
		m, err := zoo.Build(family, zoo.Config{Name: "fam-" + family, Seed: uint64(40 + i)})
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	return append(models, fineTunedSeries(t, 7)...)
}

// TestPackLoadMatchesSOMXLoad is the differential check on the pull
// path: the same repository behind a hub that can pack and behind two
// that cannot (no chunk surface; a fault-wrapped store), every model
// loaded through each. All three give a model that re-encodes to the
// bytes the publisher had, and every Load is one request — the
// chunk-less hubs answer SOMX to the pack request, they do not refuse it.
func TestPackLoadMatchesSOMXLoad(t *testing.T) {
	store := repo.NewInMemory()
	inj, err := faults.NewInjector(faults.Config{})
	if err != nil {
		t.Fatal(err)
	}
	type hubCase struct {
		name, contentType string
		client            *Client
		rt                *countingTransport
	}
	hubs := []*hubCase{
		{name: "chunk-capable", contentType: ContentTypePack},
		{name: "no chunk surface", contentType: "application/x-somx"},
		{name: "flaky store", contentType: "application/x-somx"},
	}
	hubs[0].client, hubs[0].rt = hubOver(t, store)
	hubs[1].client, hubs[1].rt = hubOver(t, plainStore{store})
	hubs[2].client, hubs[2].rt = hubOver(t, faults.NewFlakyStore(store, inj))

	deltas, shared := 0, 0
	for _, m := range packCorpus(t) {
		want := somxBytes(t, m)
		id, err := store.Publish(m)
		if err != nil {
			t.Fatal(err)
		}
		man, _ := store.Manifest(id)
		for _, l := range man.Layers {
			for _, ref := range l.Params {
				if ref.Delta != nil {
					deltas++
				}
			}
		}
		if man.BaseID != "" {
			shared++
		}
		for _, h := range hubs {
			before := h.rt.requests.Load()
			got, err := h.client.Load(id)
			if err != nil {
				t.Fatalf("%s: load %s: %v", h.name, id, err)
			}
			if n := h.rt.requests.Load() - before; n != 1 {
				t.Errorf("%s: load %s took %d requests, want 1", h.name, id, n)
			}
			if ct := h.rt.contentType.Load(); ct != h.contentType {
				t.Errorf("%s: load %s answered %v, want %s", h.name, id, ct, h.contentType)
			}
			if !bytes.Equal(somxBytes(t, got), want) {
				t.Errorf("%s: %s re-encodes differently after the pull", h.name, id)
			}
		}
	}
	if deltas == 0 || shared == 0 {
		t.Fatalf("corpus stored %d delta refs over %d based manifests; the series exercised neither", deltas, shared)
	}
}

// TestPackLoadUnknownIDIs404: asking for the pack of a model the hub
// does not hold is the same deliberate 404 a SOMX fetch gets — typed,
// not retried — whichever branch of the fetch handler answers.
func TestPackLoadUnknownIDIs404(t *testing.T) {
	store := repo.NewInMemory()
	for name, s := range map[string]repo.Store{"chunk-capable": store, "no chunk surface": plainStore{store}} {
		client, rt := hubOver(t, s)
		_, err := client.Load("ghost@1")
		var se *StatusError
		if !errors.As(err, &se) || se.Code != http.StatusNotFound {
			t.Errorf("%s: load of an unknown id: %v, want a *StatusError 404", name, err)
		}
		if n := rt.requests.Load(); n != 1 {
			t.Errorf("%s: the 404 took %d requests, want 1", name, n)
		}
	}
}

// TestPackOfDamagedStoreIs500: a stored manifest whose chunk has gone
// is the hub's fault, not the caller's — 500, so clients retry, as the
// SOMX branch answers repo.ErrDamaged.
func TestPackOfDamagedStoreIs500(t *testing.T) {
	store := repo.NewInMemory()
	id, err := store.Publish(testModel(t, "damaged", 3))
	if err != nil {
		t.Fatal(err)
	}
	man, _ := store.Manifest(id)
	srv, err := NewServer(missingChunkStore{store, man.ChunkRefs()[0]})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/models/" + id + "?format=pack")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("pack over a store missing a chunk: status %d, want 500", resp.StatusCode)
	}
}

// TestReadBodyPresizesOnlyWithinTheCap: a declared length buys one
// exact buffer when it is plausible and nothing when it is not — past
// the cap, or unknown, the read grows with the bytes that arrive — and
// a body shorter than it declared is an error either way.
func TestReadBodyPresizesOnlyWithinTheCap(t *testing.T) {
	payload := bytes.Repeat([]byte("chunk"), 1000)
	for _, declared := range []int64{int64(len(payload)), -1, 0, presizeLimit + 1} {
		got, err := readBody(bytes.NewReader(payload), declared)
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("declared %d: read %d bytes, err %v", declared, len(got), err)
		}
		if declared > presizeLimit && cap(got) >= int(declared) {
			t.Errorf("declared %d: allocated %d bytes on the declaration alone", declared, cap(got))
		}
	}
	if _, err := readBody(bytes.NewReader(payload[:10]), int64(len(payload))); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("short body: %v, want io.ErrUnexpectedEOF", err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := readBody(bytes.NewReader(payload), int64(len(payload))); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 { // the buffer and the bytes.Reader
		t.Errorf("presized read made %.0f allocations, want the buffer alone", allocs)
	}
}

// TestChunkPutPresizedReadKeepsTheBodyLimit: a chunk whose declared
// length fits the presize cap but not the hub's upload limit is still
// a 413, and one that fits both is stored — declared length or not.
func TestChunkPutPresizedReadKeepsTheBodyLimit(t *testing.T) {
	store := repo.NewInMemory()
	srv, err := NewServer(store, WithMaxBodyBytes(128))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	put := func(data []byte, declare bool) int {
		t.Helper()
		var body io.Reader = bytes.NewReader(data)
		if !declare {
			body = io.MultiReader(body) // hides the length: chunked upload
		}
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/chunks/"+chunk.Hash(data), body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	small, big := bytes.Repeat([]byte{1}, 64), bytes.Repeat([]byte{2}, 256)
	for _, declare := range []bool{true, false} {
		if code := put(big, declare); code != http.StatusRequestEntityTooLarge {
			t.Errorf("declared=%v: oversized chunk status %d, want 413", declare, code)
		}
		if code := put(small, declare); code != http.StatusCreated {
			t.Errorf("declared=%v: chunk status %d, want 201", declare, code)
		}
	}
	if !store.HasChunk(chunk.Hash(small)) || store.HasChunk(chunk.Hash(big)) {
		t.Error("the store does not hold exactly the chunk that fit")
	}
}

// missingChunkStore is a repository that has lost one chunk.
type missingChunkStore struct {
	*repo.Repository
	lost string
}

func (s missingChunkStore) GetChunk(hash string) ([]byte, error) {
	if hash == s.lost {
		return nil, errors.New("test store: chunk lost")
	}
	return s.Repository.GetChunk(hash)
}

// BenchmarkHubLoad prices one uncached Client.Load against a loopback
// hub over an in-memory repository: a width-96 depth-3 residual model
// and one sparse edit of it, loaded alternately through a one-entry
// cache so every iteration goes to the wire. pack is the path a
// chunk-capable hub serves; somx is the same pull from a hub whose
// store has no chunk surface.
func BenchmarkHubLoad(b *testing.B) {
	base, err := zoo.DenseResidualNet(zoo.Config{Name: "bench-base", Seed: 9, Width: 96, Depth: 3, Series: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	edit, err := zoo.SparseEdit(base, "bench-edit", 8, 10)
	if err != nil {
		b.Fatal(err)
	}
	store := repo.NewInMemory()
	var ids [2]string
	for i, m := range []*graph.Model{base, edit} {
		if ids[i], err = store.Publish(m); err != nil {
			b.Fatal(err)
		}
	}
	for _, bc := range []struct {
		name  string
		store repo.Store
	}{{"pack", store}, {"somx", plainStore{store}}} {
		b.Run(bc.name, func(b *testing.B) {
			client, _ := hubOver(b, bc.store)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := client.Load(ids[i%2])
				if err != nil {
					b.Fatal(err)
				}
				benchLoaded = m
			}
		})
	}
}

var benchLoaded *graph.Model
