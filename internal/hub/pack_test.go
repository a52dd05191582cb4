package hub

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"sommelier/internal/cas"
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

// packBytes is m's pack, the body a model PUT carries.
func packBytes(t testing.TB, m *graph.Model) []byte {
	t.Helper()
	enc, err := cas.Encode(m, "", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	pack, err := cas.EncodePack(nil, enc.Manifest, enc.Chunk)
	if err != nil {
		t.Fatal(err)
	}
	return pack
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
	return append(models, fineTunedSeries(t, 7, 48)...)
}

// TestEveryHubAnswersAPack is the differential check on the pull path:
// the same repository behind a hub that has a chunk store and behind
// two that do not (no chunk surface; a fault-wrapped store), every
// model loaded through each. All three answer the one body, a pack,
// in one request per Load, and give a model that re-encodes to the
// bytes the publisher had.
func TestEveryHubAnswersAPack(t *testing.T) {
	store := repo.NewInMemory()
	inj, err := faults.NewInjector(faults.Config{})
	if err != nil {
		t.Fatal(err)
	}
	type hubCase struct {
		name   string
		client *Client
		rt     *countingTransport
	}
	hubs := []*hubCase{{name: "chunk store"}, {name: "no chunk surface"}, {name: "flaky store"}}
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
			if ct := h.rt.contentType.Load(); ct != ContentTypePack {
				t.Errorf("%s: load %s answered %v, want %s", h.name, id, ct, ContentTypePack)
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
// does not hold is a deliberate 404 — typed, not retried — whether the
// hub renders packs from a chunk store or from the models it loads.
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
// is the hub's fault, not the caller's — 500, so clients retry, as a
// chunkless hub answers a load failing with repo.ErrDamaged.
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
	resp, err := ts.Client().Get(ts.URL + "/v1/models/" + id)
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
// a body shorter than it declared is an error either way. A dst with
// room for the declared length is read into whatever the length.
func TestReadBodyPresizesOnlyWithinTheCap(t *testing.T) {
	payload := bytes.Repeat([]byte("chunk"), 1000)
	dst := make([]byte, 0, len(payload))
	if got, err := readBody(dst, bytes.NewReader(payload), int64(len(payload))); err != nil ||
		!bytes.Equal(got, payload) || &got[0] != &dst[:1][0] {
		t.Errorf("a dst with room: read %d bytes, err %v, into dst %v", len(got), err, err == nil && &got[0] == &dst[:1][0])
	}
	for _, declared := range []int64{int64(len(payload)), -1, 0, presizeLimit + 1} {
		got, err := readBody(nil, bytes.NewReader(payload), declared)
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("declared %d: read %d bytes, err %v", declared, len(got), err)
		}
		if declared > presizeLimit && cap(got) >= int(declared) {
			t.Errorf("declared %d: allocated %d bytes on the declaration alone", declared, cap(got))
		}
	}
	if _, err := readBody(nil, bytes.NewReader(payload[:10]), int64(len(payload))); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("short body: %v, want io.ErrUnexpectedEOF", err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := readBody(nil, bytes.NewReader(payload), int64(len(payload))); err != nil {
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

// TestManifestGetIsRenderedFirst: GET ?format=manifest answers a
// manifest rendered whole, with its Content-Length, and a stored
// manifest the codec cannot represent is a clean 500 — no status line
// after a partial body.
func TestManifestGetIsRenderedFirst(t *testing.T) {
	store := repo.NewInMemory()
	id, err := store.Publish(testModel(t, "rendered", 3))
	if err != nil {
		t.Fatal(err)
	}
	get := func(s repo.Store) (*http.Response, []byte) {
		t.Helper()
		srv, err := NewServer(s)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		defer ts.Close()
		resp, err := ts.Client().Get(ts.URL + "/v1/models/" + id + "?format=manifest")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}
	resp, body := get(store)
	if resp.StatusCode != http.StatusOK || resp.ContentLength != int64(len(body)) {
		t.Fatalf("manifest GET: status %d, Content-Length %d for %d bytes", resp.StatusCode, resp.ContentLength, len(body))
	}
	if _, err := cas.DecodeManifest(bytes.NewReader(body)); err != nil {
		t.Fatalf("the served manifest does not decode: %v", err)
	}
	resp, body = get(badManifestStore{store})
	if resp.StatusCode != http.StatusInternalServerError || bytes.HasPrefix(body, []byte("SOMXMF")) {
		t.Fatalf("unrepresentable manifest: status %d, body %q; want a 500 and no manifest bytes", resp.StatusCode, body)
	}
}

// badManifestStore hands out its manifests with their layers replaced
// by one whose chunk address is not one, as a damaged store might.
type badManifestStore struct{ *repo.Repository }

func (s badManifestStore) Manifest(id string) (*cas.Manifest, bool) {
	man, ok := s.Repository.Manifest(id)
	if !ok {
		return nil, false
	}
	bad := *man
	bad.Layers = []cas.LayerRef{{Name: "l", Op: graph.OpDense,
		Params: map[string]cas.TensorRef{"W": {Shape: []int{1}, Chunks: []string{"not-an-address"}}}}}
	return &bad, true
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

// hubLoadFixture is BenchmarkHubLoad's repository: a width-96 depth-3
// residual model and one sparse edit of it, in memory. It returns their
// IDs and the larger one's parameter bytes.
func hubLoadFixture(tb testing.TB) (*repo.Repository, [2]string, int) {
	tb.Helper()
	base, err := zoo.DenseResidualNet(zoo.Config{Name: "bench-base", Seed: 9, Width: 96, Depth: 3, Series: "bench"})
	if err != nil {
		tb.Fatal(err)
	}
	edit, err := zoo.SparseEdit(base, "bench-edit", 8, 10)
	if err != nil {
		tb.Fatal(err)
	}
	store := repo.NewInMemory()
	var ids [2]string
	params := 0
	for i, m := range []*graph.Model{base, edit} {
		if ids[i], err = store.Publish(m); err != nil {
			tb.Fatal(err)
		}
		params = max(params, 8*int(m.ParamCount()))
	}
	return store, ids, params
}

// TestLoadAllocatesAboutTheModel is the pull path's allocation gate: in
// steady state an uncached Client.Load against a loopback hub — client,
// server and HTTP together — allocates at most 2.5 times the model's
// parameter bytes. Rendering each pack into a fresh buffer, reading it
// into another, or a manifest codec that allocates per element pushes
// it past that; the model itself is one times.
func TestLoadAllocatesAboutTheModel(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	store, ids, params := hubLoadFixture(t)
	client, _ := hubOver(t, store)
	load := func(i int) {
		if _, err := client.Load(ids[i%2]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		load(i) // connections and buffers reach their steady state
	}
	const n = 40
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		load(i)
	}
	runtime.ReadMemStats(&after)
	perLoad := float64(after.TotalAlloc-before.TotalAlloc) / n
	if ratio := perLoad / float64(params); ratio > 2.5 {
		t.Fatalf("an uncached Load allocates %.0f bytes, %.2fx the model's %d parameter bytes; want at most 2.5x",
			perLoad, ratio, params)
	}
}

// TestConcurrentLoadsStayIntact: loads of different models through one
// client at once each give the model that was published, byte for
// byte — the client's and the server's recycled buffers are never
// handed to a second pull while a first still reads them. Run it with
// -race.
func TestConcurrentLoadsStayIntact(t *testing.T) {
	store := repo.NewInMemory()
	models := packCorpus(t)
	ids := make([]string, len(models))
	want := make([][]byte, len(models))
	for i, m := range models {
		want[i] = somxBytes(t, m)
		var err error
		if ids[i], err = store.Publish(m); err != nil {
			t.Fatal(err)
		}
	}
	client, _ := hubOver(t, store)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for k := range ids {
					i := (k + w*len(ids)/4) % len(ids)
					m, err := client.Load(ids[i])
					if err != nil {
						t.Error(err)
						return
					}
					var buf bytes.Buffer
					if err := graph.Encode(&buf, m); err != nil {
						t.Error(err)
						return
					}
					if !bytes.Equal(buf.Bytes(), want[i]) {
						t.Errorf("worker %d: %s re-encodes differently after a concurrent pull", w, ids[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkHubLoad prices one uncached Client.Load against a loopback
// hub over an in-memory repository: hubLoadFixture's two models loaded
// alternately through a one-entry cache so every iteration goes to the
// wire. pack is the path a hub over a chunk store serves; chunkless is
// the same pull from a hub whose store has no chunk surface, which
// chunks each model it loads to render the pack.
func BenchmarkHubLoad(b *testing.B) {
	store, ids, _ := hubLoadFixture(b)
	for _, bc := range []struct {
		name  string
		store repo.Store
	}{{"pack", store}, {"chunkless", plainStore{store}}} {
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

// TestPublishAllocatesAboutWhatItKeeps is the publish path's allocation
// gate, the twin of TestLoadAllocatesAboutTheModel: in steady state a
// PublishModel of a fine-tuned variant to a loopback hub that holds its
// base — the client's encode and chunk PUTs, the hub's negotiation,
// hydration and store together, no indexer — allocates at most 2.4
// times the variant's parameter bytes. The hub keeps the hydrated model
// (one times) and a copy of each new chunk. Copying the parameters to
// hash them (3.2x) or reading each chunk PUT into a fresh buffer (2.6x)
// pushes it past the bound.
func TestPublishAllocatesAboutWhatItKeeps(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	const warm, n = 8, 24
	series := fineTunedSeries(t, 1+warm+n, 96)
	base, variants := series[0], series[1:]
	client, _ := hubOver(t, repo.NewInMemory())
	publish := func(m *graph.Model) {
		if _, _, err := client.PublishModel(m); err != nil {
			t.Fatal(err)
		}
	}
	publish(base)
	for _, m := range variants[:warm] {
		publish(m) // connections and buffers reach their steady state
	}
	params := 0
	for _, m := range variants[warm:] {
		params += 8 * int(m.ParamCount())
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, m := range variants[warm:] {
		publish(m)
	}
	runtime.ReadMemStats(&after)
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(params)
	t.Logf("%d parameter bytes per variant, %.2fx allocated per publish", params/n, ratio)
	if ratio > 2.4 {
		t.Fatalf("a publish allocates %.2fx the variant's parameter bytes; want at most 2.4x", ratio)
	}
}
