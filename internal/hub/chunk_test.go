package hub

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sommelier/internal/cas"
	"sommelier/internal/chunk"
	"sommelier/internal/graph"
	"sommelier/internal/repo"
	"sommelier/internal/zoo"
)

func chunkFixtures(t *testing.T) (base, variant *graph.Model) {
	t.Helper()
	b, err := zoo.DenseResidualNet(zoo.Config{Name: "cbase", Seed: 21, Width: 32, Depth: 3})
	if err != nil {
		t.Fatal(err)
	}
	b.Version = "1"
	v, err := zoo.Transfer(b, "cvariant", 8, 100, 0, 22)
	if err != nil {
		t.Fatal(err)
	}
	v.Version = "1"
	return b, v
}

func newChunkServer(t *testing.T) (*repo.Repository, *httptest.Server) {
	t.Helper()
	store := repo.NewInMemory()
	srv, err := NewServer(store)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return store, ts
}

func TestPublishEncodedNegotiatesChunks(t *testing.T) {
	store, ts := newChunkServer(t)
	c, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	base, variant := chunkFixtures(t)

	src := repo.NewInMemory()
	encBase, err := src.Encode(base)
	if err != nil {
		t.Fatal(err)
	}
	id, sentBase, err := c.PublishEncoded(encBase)
	if err != nil {
		t.Fatal(err)
	}
	if id != "cbase@1" {
		t.Fatalf("id = %q", id)
	}
	if sentBase <= 0 {
		t.Fatalf("first publish sent %d bytes; everything was new", sentBase)
	}
	if _, err := src.PublishEncoded(encBase); err != nil {
		t.Fatal(err)
	}

	// The variant shares its frozen trunk with the base the hub already
	// holds — only head chunks should cross the wire.
	encVar, err := src.Encode(variant)
	if err != nil {
		t.Fatal(err)
	}
	if _, sentVar, err := c.PublishEncoded(encVar); err != nil {
		t.Fatal(err)
	} else if sentVar <= 0 || sentVar*2 >= sentBase {
		t.Fatalf("variant sent %d bytes vs base %d; negotiation is not deduplicating", sentVar, sentBase)
	}

	// Republishing the identical model moves no chunk bytes at all.
	if _, sentAgain, err := c.PublishEncoded(encBase); err != nil {
		t.Fatal(err)
	} else if sentAgain != 0 {
		t.Fatalf("republish sent %d chunk bytes, want 0", sentAgain)
	}

	got, err := store.Load("cvariant@1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(somxBytes(t, got), somxBytes(t, variant)) {
		t.Fatal("negotiated publish changed the model")
	}
}

func TestLoadManifestAndChunkFetch(t *testing.T) {
	store, ts := newChunkServer(t)
	c, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	base, _ := chunkFixtures(t)
	if _, err := store.Publish(base); err != nil {
		t.Fatal(err)
	}
	man, err := c.LoadManifest("cbase@1")
	if err != nil {
		t.Fatal(err)
	}
	refs := man.ChunkRefs()
	if len(refs) == 0 {
		t.Fatal("manifest has no chunk refs")
	}
	// HEAD /v1/chunks/{hash} answers 200 for a held chunk, 404 otherwise.
	head := func(hash string) int {
		t.Helper()
		resp, err := ts.Client().Head(ts.URL + "/v1/chunks/" + hash)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := head(refs[0]); code != http.StatusOK {
		t.Fatalf("HEAD held chunk %s = %d, want 200", refs[0], code)
	}
	data, err := c.GetChunk(refs[0])
	if err != nil || len(data) == 0 {
		t.Fatalf("GetChunk = %d bytes, %v", len(data), err)
	}
	if code := head(strings.Repeat("0", 64)); code != http.StatusNotFound {
		t.Fatalf("HEAD absent chunk = %d, want 404", code)
	}
	if err := c.PutChunk(refs[0], []byte("tampered")); err == nil {
		t.Fatal("hub accepted a chunk whose bytes do not hash to its address")
	}
}

// countingTransport counts round trips, GET /v1/chunks/ requests — the
// wire cost a mirror pays for tensor data — and request body bytes, the
// wire cost of a publish, and remembers what the last response called
// itself.
type countingTransport struct {
	inner       http.RoundTripper
	requests    atomic.Int64
	chunkGets   atomic.Int64
	uploaded    atomic.Int64
	contentType atomic.Value // string
}

func (ct *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ct.requests.Add(1)
	if req.ContentLength > 0 {
		ct.uploaded.Add(req.ContentLength)
	}
	if req.Method == http.MethodGet && strings.Contains(req.URL.Path, "/v1/chunks/") {
		ct.chunkGets.Add(1)
	}
	resp, err := ct.inner.RoundTrip(req)
	if err == nil {
		ct.contentType.Store(resp.Header.Get("Content-Type"))
	}
	return resp, err
}

func TestMirrorTransfersOnlyMissingChunks(t *testing.T) {
	store, ts := newChunkServer(t)
	ct := &countingTransport{inner: ts.Client().Transport}
	c, err := NewClient(ts.URL, &http.Client{Transport: ct})
	if err != nil {
		t.Fatal(err)
	}
	base, variant := chunkFixtures(t)
	if _, err := store.Publish(base); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Publish(variant); err != nil {
		t.Fatal(err)
	}

	dst := repo.NewInMemory()
	n, err := c.Mirror(dst)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || dst.Len() != 2 {
		t.Fatalf("mirrored %d models, repo holds %d", n, dst.Len())
	}
	for _, id := range []string{"cbase@1", "cvariant@1"} {
		want, _ := store.Load(id)
		got, err := dst.Load(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(somxBytes(t, got), somxBytes(t, want)) {
			t.Fatalf("mirror changed %s", id)
		}
	}
	// Dedup carried across the wire: the mirror's chunk store holds each
	// shared trunk chunk once, and each distinct chunk was fetched once.
	srcStats, dstStats := store.CASStats(), dst.CASStats()
	if dstStats.Chunks != srcStats.Chunks {
		t.Fatalf("mirror holds %d chunks, source %d", dstStats.Chunks, srcStats.Chunks)
	}
	if got := ct.chunkGets.Load(); got != int64(srcStats.Chunks) {
		t.Fatalf("first mirror fetched %d chunks, want %d (each once)", got, srcStats.Chunks)
	}

	// Re-mirroring an unchanged hub moves manifests alone — zero chunk
	// fetches.
	ct.chunkGets.Store(0)
	if _, err := c.Mirror(dst); err != nil {
		t.Fatal(err)
	}
	if got := ct.chunkGets.Load(); got != 0 {
		t.Fatalf("re-mirror fetched %d chunks, want 0", got)
	}
}

// plainStore hides the chunk surface (no embedding, so no promoted
// methods), simulating a pre-chunk hub.
type plainStore struct{ r *repo.Repository }

func (p plainStore) Publish(m *graph.Model) (string, error)   { return p.r.Publish(m) }
func (p plainStore) Load(id string) (*graph.Model, error)     { return p.r.Load(id) }
func (p plainStore) Delete(id string) error                   { return p.r.Delete(id) }
func (p plainStore) List() []repo.Metadata                    { return p.r.List() }
func (p plainStore) Metadata(id string) (repo.Metadata, bool) { return p.r.Metadata(id) }
func (p plainStore) Len() int                                 { return p.r.Len() }

func TestChunkProtocolFallsBackOnOldHub(t *testing.T) {
	inner := repo.NewInMemory()
	srv, err := NewServer(plainStore{inner})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	base, _ := chunkFixtures(t)

	// Chunked publish degrades to whole-model transfer.
	src := repo.NewInMemory()
	enc, err := src.Encode(base)
	if err != nil {
		t.Fatal(err)
	}
	id, sent, err := c.PublishEncoded(enc)
	if err != nil {
		t.Fatal(err)
	}
	if id != "cbase@1" || sent != -1 {
		t.Fatalf("fallback publish: id=%q sent=%d", id, sent)
	}
	if _, err := inner.Load(id); err != nil {
		t.Fatal(err)
	}

	// Mirror degrades the same way.
	dst := repo.NewInMemory()
	if n, err := c.Mirror(dst); err != nil || n != 1 {
		t.Fatalf("fallback mirror: n=%d err=%v", n, err)
	}
	if _, err := dst.Load(id); err != nil {
		t.Fatal(err)
	}
}

// fineTunedSeries builds an n-model fine-tuned series: a depth-3
// residual base of the given width, then variants cycling through
// sparse edits, frozen-trunk transfers and lightly tuned transfers, each
// naming the base so a repository stores it as delta refs and shared
// trunk chunks.
func fineTunedSeries(t testing.TB, n, width int) []*graph.Model {
	t.Helper()
	const depth = 3
	base, err := zoo.DenseResidualNet(zoo.Config{Name: "series-base", Seed: 2022, Width: width, Depth: depth, Series: "series"})
	if err != nil {
		t.Fatal(err)
	}
	models := []*graph.Model{base}
	trunk := 1 + 2*depth // stem + two Dense per residual block
	for i := 1; i < n; i++ {
		name, seed := fmt.Sprintf("series-v%02d", i), uint64(2022+i)
		var v *graph.Model
		switch i % 3 {
		case 0:
			v, err = zoo.SparseEdit(base, name, 8, seed)
		case 1:
			v, err = zoo.Transfer(base, name, 8, trunk, 0, seed)
		default:
			v, err = zoo.Transfer(base, name, 8, trunk-1, 0.02, seed)
		}
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, v)
	}
	return models
}

// TestFineTunedSeriesDedupAndFidelity is the chunk layer's acceptance
// gate: a 32-model fine-tuned series (one base, then variants cycling
// through sparse edits, frozen-trunk transfers and lightly tuned
// transfers) must cost at least 3x less than the whole-model baseline
// in both stored and uploaded bytes, exercise sparse delta refs and
// shared chunks, and hydrate byte-identically from a cold re-open.
func TestFineTunedSeriesDedupAndFidelity(t *testing.T) {
	const n = 32
	models := fineTunedSeries(t, n, 48)

	dir := t.TempDir()
	src, err := repo.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newChunkServer(t)
	ct := &countingTransport{inner: ts.Client().Transport}
	c, err := NewClient(ts.URL, &http.Client{Transport: ct})
	if err != nil {
		t.Fatal(err)
	}
	somxOf := func(m *graph.Model) []byte {
		var buf bytes.Buffer
		if err := graph.Encode(&buf, m); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// wholeStored counts each model's chunks standalone, with no
	// cross-model sharing; wholeWire is the SOMX body Client.Publish
	// would upload per model.
	var wholeStored, wholeWire int64
	somx := make([][]byte, n)
	deltaRefs := 0
	for i, m := range models {
		m.Version = "1"
		standalone, err := cas.Encode(m, "", nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, data := range standalone.Chunks {
			wholeStored += int64(len(data))
		}
		somx[i] = somxOf(m)
		wholeWire += int64(len(somx[i]))

		enc, err := src.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := src.PublishEncoded(enc); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.PublishEncoded(enc); err != nil {
			t.Fatal(err)
		}
		for _, l := range enc.Manifest.Layers {
			for _, ref := range l.Params {
				if ref.Delta != nil {
					deltaRefs++
				}
			}
		}
	}

	stats, sent := src.CASStats(), ct.uploaded.Load()
	t.Logf("stored %d of %d bytes (%.1fx), uploaded %d of %d (%.1fx), %d delta refs, %d dedup hits",
		stats.Bytes, wholeStored, float64(wholeStored)/float64(stats.Bytes),
		sent, wholeWire, float64(wholeWire)/float64(sent), deltaRefs, stats.DedupHits)
	if wholeStored < 3*stats.Bytes {
		t.Fatalf("stored %d of %d whole-model bytes, want >= 3x dedup", stats.Bytes, wholeStored)
	}
	if wholeWire < 3*sent {
		t.Fatalf("uploaded %d of %d whole-model bytes, want >= 3x reduction", sent, wholeWire)
	}
	if deltaRefs == 0 {
		t.Fatal("series exercised no sparse delta refs")
	}
	if stats.DedupHits == 0 {
		t.Fatal("publishing the series hit no shared chunks")
	}

	cold, err := repo.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range models {
		got, err := cold.Load(repo.IDFor(m))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(somxOf(got), somx[i]) {
			t.Fatalf("%s hydrated from chunks did not re-encode byte-identically", repo.IDFor(m))
		}
	}
}

// TestConcurrentChunkPutsAreNotRetained: the hub reads each chunk PUT
// into a recycled buffer, so a store that kept the buffer would see a
// later upload overwrite an earlier chunk. Distinct chunks PUT at once
// must each GET back byte-identical, and a PUT whose bytes do not hash
// to its address is still refused. Run it with -race.
func TestConcurrentChunkPutsAreNotRetained(t *testing.T) {
	_, ts := newChunkServer(t)
	c, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 4, 16
	chunks := make([][]byte, workers*perWorker)
	for i := range chunks {
		chunks[i] = bytes.Repeat([]byte{byte(i), byte(i >> 8), 0xa5}, 1000+i)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(chunks); i += workers {
				if err := c.PutChunk(chunk.Hash(chunks[i]), chunks[i]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for i, want := range chunks {
		got, err := c.GetChunk(chunk.Hash(want))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("chunk %d reads back changed after concurrent uploads", i)
		}
	}
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/chunks/"+chunk.Hash(chunks[0]), bytes.NewReader(chunks[1]))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("a chunk PUT under another chunk's address answered %d, want 400", resp.StatusCode)
	}
}
