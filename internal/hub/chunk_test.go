package hub

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
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

// TestPublishEncodedNegotiatesChunks: a publish to a chunk store is the
// manifest-alone pack and, when the hub lacks chunks, one more pack
// carrying exactly those — two requests — and one request when it holds
// them all. Only the chunks the hub lacks count as sent.
func TestPublishEncodedNegotiatesChunks(t *testing.T) {
	store, ts := newChunkServer(t)
	ct := &countingTransport{inner: ts.Client().Transport}
	c, err := NewClient(ts.URL, &http.Client{Transport: ct})
	if err != nil {
		t.Fatal(err)
	}
	base, variant := chunkFixtures(t)
	src := repo.NewInMemory()
	publish := func(m *graph.Model, wantRequests int64) int64 {
		t.Helper()
		enc, err := src.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := src.PublishEncoded(enc); err != nil {
			t.Fatal(err)
		}
		ct.requests.Store(0)
		id, sent, err := c.PublishEncoded(enc)
		if err != nil {
			t.Fatal(err)
		}
		if id != repo.IDFor(m) {
			t.Fatalf("id = %q, want %q", id, repo.IDFor(m))
		}
		if got := ct.requests.Load(); got != wantRequests {
			t.Fatalf("publishing %s took %d requests, want %d", id, got, wantRequests)
		}
		return sent
	}

	sentBase := publish(base, 2)
	if sentBase <= 0 {
		t.Fatalf("first publish sent %d bytes; everything was new", sentBase)
	}
	// The variant shares its frozen trunk with the base the hub already
	// holds — only head chunks should cross the wire.
	if sentVar := publish(variant, 2); sentVar <= 0 || sentVar*2 >= sentBase {
		t.Fatalf("variant sent %d bytes vs base %d; negotiation is not deduplicating", sentVar, sentBase)
	}
	// Republishing the identical model moves no chunk bytes at all.
	if sentAgain := publish(base, 1); sentAgain != 0 {
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

// TestPublishSplitsRecordsAtTheBudget: a model with more new bytes than
// packBudget publishes to a hub whose body limit sits just above the
// budget, in packs none of which carries more than the budget besides
// the manifest.
func TestPublishSplitsRecordsAtTheBudget(t *testing.T) {
	m, err := zoo.DenseResidualNet(zoo.Config{Name: "wide", Seed: 23, Width: 512, Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := cas.Encode(m, "", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var params int
	for _, data := range enc.Chunks {
		params += len(data)
	}
	if params <= 2*packBudget {
		t.Fatalf("fixture carries %d chunk bytes, want more than twice the %d-byte budget", params, packBudget)
	}
	head, err := cas.EncodePack(nil, enc.Manifest, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	store := repo.NewInMemory()
	srv, err := NewServer(store, WithMaxBodyBytes(packBudget+int64(len(head))+1024))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	rt := &putRecorder{inner: ts.Client().Transport}
	c, err := NewClient(ts.URL, &http.Client{Transport: rt})
	if err != nil {
		t.Fatal(err)
	}
	if _, sent, err := c.PublishEncoded(enc); err != nil {
		t.Fatal(err)
	} else if sent != int64(params) {
		t.Fatalf("sent %d chunk bytes, want all %d", sent, params)
	}
	if len(rt.sizes) < 4 {
		t.Fatalf("published in %d PUTs, want the manifest and at least three record packs", len(rt.sizes))
	}
	for i, n := range rt.sizes {
		if n > packBudget+len(head) {
			t.Fatalf("PUT %d carried %d bytes, past the %d-byte budget and the %d-byte manifest", i, n, packBudget, len(head))
		}
	}
	got, err := store.Load(repo.IDFor(m))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(somxBytes(t, got), somxBytes(t, m)) {
		t.Fatal("a publish split across packs changed the model")
	}
}

// putPackRaw PUTs body to /v1/models/{id} as a pack and returns the
// status and the body of the answer.
func putPackRaw(t *testing.T, ts *httptest.Server, id string, body []byte) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/models/"+id, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ContentTypePack)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	answer, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(answer)
}

// TestPackPutStoresTheManifestItCarries: a complete pack PUT to a chunk
// store commits the manifest it carries as it is. A transferred variant
// packed standalone names its base in its metadata; the hub must not
// resolve that base and re-encode the variant as deltas against it.
func TestPackPutStoresTheManifestItCarries(t *testing.T) {
	store, ts := newChunkServer(t)
	base, variant := chunkFixtures(t)
	if code, answer := putPackRaw(t, ts, "cbase@1", packBytes(t, base)); code != http.StatusCreated {
		t.Fatalf("base PUT answered %d: %s", code, answer)
	}
	if variant.Metadata["transferred-from"] == "" {
		t.Fatal("fixture: the variant does not name its base")
	}
	enc, err := cas.Encode(variant, "", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	pack, err := cas.EncodePack(nil, enc.Manifest, enc.Manifest.ChunkRefs(), enc.Chunk)
	if err != nil {
		t.Fatal(err)
	}
	if code, answer := putPackRaw(t, ts, "cvariant@1", pack); code != http.StatusCreated {
		t.Fatalf("variant PUT answered %d: %s", code, answer)
	}
	stored, ok := store.Manifest("cvariant@1")
	if !ok {
		t.Fatal("the variant was not stored")
	}
	var want, got bytes.Buffer
	if err := cas.EncodeManifest(&want, enc.Manifest); err != nil {
		t.Fatal(err)
	}
	if err := cas.EncodeManifest(&got, stored); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("the hub stored another manifest than the pack carried (base %q)", stored.BaseID)
	}
}

// lostPuts is a repository whose chunk store loses every chunk the hub
// puts, as if a racing delete collected each right after its put.
type lostPuts struct{ *repo.Repository }

func (lostPuts) PutChunk(string, []byte) error { return nil }

// TestCompletePackSurvivesRacingDeletes: the chunks a pack carries are
// held for its own commit whatever happens to their stored copies, so a
// complete pack is never answered 409 and commits.
func TestCompletePackSurvivesRacingDeletes(t *testing.T) {
	store := repo.NewInMemory()
	srv, err := NewServer(lostPuts{store})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	base, _ := chunkFixtures(t)
	if code, answer := putPackRaw(t, ts, "cbase@1", packBytes(t, base)); code != http.StatusCreated {
		t.Fatalf("complete pack answered %d: %s", code, answer)
	}
	got, err := store.Load("cbase@1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(somxBytes(t, got), somxBytes(t, base)) {
		t.Fatal("the committed model differs from the pack's")
	}
}

// TestPackPutRefusesAnUnreferencedRecord: a record that hashes to no
// later manifest reference — a flipped byte, a chunk of another model —
// is a 400, and nothing is published.
func TestPackPutRefusesAnUnreferencedRecord(t *testing.T) {
	store, ts := newChunkServer(t)
	base, variant := chunkFixtures(t)
	enc, err := cas.Encode(base, "", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	other, err := cas.Encode(variant, "", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	refs := enc.Manifest.ChunkRefs()
	flipped := func(h string) ([]byte, error) {
		data := append([]byte(nil), enc.Chunks[h]...)
		data[0] ^= 1
		return data, nil
	}
	var foreign string
	for h := range other.Chunks {
		if _, ok := enc.Chunks[h]; !ok {
			foreign = h
			break
		}
	}
	bodies := map[string]func() ([]byte, error){
		"flipped byte": func() ([]byte, error) { return cas.EncodePack(nil, enc.Manifest, refs[:1], flipped) },
		"foreign chunk": func() ([]byte, error) {
			return cas.EncodePack(nil, enc.Manifest, []string{foreign}, other.Chunk)
		},
	}
	for name, body := range bodies {
		data, err := body()
		if err != nil {
			t.Fatal(err)
		}
		if code, answer := putPackRaw(t, ts, "cbase@1", data); code != http.StatusBadRequest {
			t.Errorf("%s: answered %d (%s), want 400", name, code, answer)
		}
	}
	if store.Len() != 0 || store.CASStats().Chunks != 0 {
		t.Fatalf("refused uploads left %d models and %d chunks", store.Len(), store.CASStats().Chunks)
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
	data, err := c.GetChunk(refs[0])
	if err != nil || len(data) == 0 {
		t.Fatalf("GetChunk = %d bytes, %v", len(data), err)
	}
	// Chunks go up only as pack records: the chunk path takes GET alone.
	for _, method := range []string{http.MethodHead, http.MethodPut} {
		req, err := http.NewRequest(method, ts.URL+"/v1/chunks/"+refs[0], bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s of a chunk answered %d, want 405", method, resp.StatusCode)
		}
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

// TestChunkProtocolFallsBackOnOldHub: against a hub with no chunk
// surface, a chunked publish becomes one complete pack PUT of the
// encoding after the refused manifest-alone pack, and a mirror loads
// each model's pack.
func TestChunkProtocolFallsBackOnOldHub(t *testing.T) {
	inner := repo.NewInMemory()
	srv, err := NewServer(plainStore{inner})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	rt := &putRecorder{inner: ts.Client().Transport}
	c, err := NewClient(ts.URL, &http.Client{Transport: rt})
	if err != nil {
		t.Fatal(err)
	}
	base, _ := chunkFixtures(t)

	src := repo.NewInMemory()
	enc, err := src.Encode(base)
	if err != nil {
		t.Fatal(err)
	}
	pack, err := cas.EncodePack(nil, enc.Manifest, enc.Manifest.ChunkRefs(), enc.Chunk)
	if err != nil {
		t.Fatal(err)
	}
	id, sent, err := c.PublishEncoded(enc)
	if err != nil {
		t.Fatal(err)
	}
	if id != "cbase@1" || sent != int64(len(pack)) {
		t.Fatalf("fallback publish: id=%q sent=%d, want cbase@1 and the pack's %d bytes", id, sent, len(pack))
	}
	if want := []string{ContentTypePack, ContentTypePack}; !slices.Equal(rt.puts, want) {
		t.Fatalf("fallback publish sent PUTs %q, want %q", rt.puts, want)
	}
	if !bytes.Equal(rt.last, pack) {
		t.Fatal("the fallback PUT's body is not the encoding's pack")
	}
	if _, err := inner.Load(id); err != nil {
		t.Fatal(err)
	}

	dst := repo.NewInMemory()
	if n, err := c.Mirror(dst); err != nil || n != 1 {
		t.Fatalf("fallback mirror: n=%d err=%v", n, err)
	}
	if _, err := dst.Load(id); err != nil {
		t.Fatal(err)
	}
}

// TestGetAbsentChunkIs404: a chunk the store does not hold is the
// caller's miss, 404, not a hub failure a client would retry.
func TestGetAbsentChunkIs404(t *testing.T) {
	_, ts := newChunkServer(t)
	resp, err := http.Get(ts.URL + "/v1/chunks/" + chunk.Hash([]byte("absent")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET of an absent chunk answered %d, want 404", resp.StatusCode)
	}
}

// TestClientRemembersChunklessHub checks that a client asks a hub
// without a chunk surface to negotiate once: the refused partial pack
// sends that publish and every later one as a single complete pack.
func TestClientRemembersChunklessHub(t *testing.T) {
	inner := repo.NewInMemory()
	srv, err := NewServer(plainStore{inner})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	tr := newBodyCounter(ts.Client().Transport)
	c, err := NewClient(ts.URL, &http.Client{Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	base, _ := chunkFixtures(t)
	for i := range 30 {
		base.Version = fmt.Sprint(i + 1)
		if _, _, err := c.PublishModel(base); err != nil {
			t.Fatal(err)
		}
	}
	if got := tr.answers(http.StatusNotImplemented); got != 1 {
		t.Errorf("30 publishes to a chunkless hub drew %d 501 answers, want 1", got)
	}
	if got := tr.answers(http.StatusCreated); got != 30 {
		t.Errorf("30 publishes drew %d 201 answers, want 30", got)
	}
	if inner.Len() != 30 {
		t.Errorf("hub holds %d models, want 30", inner.Len())
	}
}

// bodyCounter is a transport that counts answers by status and the
// response bodies the client has closed.
type bodyCounter struct {
	inner  http.RoundTripper
	mu     sync.Mutex
	status map[int]int
	closed int
}

func newBodyCounter(inner http.RoundTripper) *bodyCounter {
	return &bodyCounter{inner: inner, status: make(map[int]int)}
}

func (bc *bodyCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := bc.inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	bc.mu.Lock()
	bc.status[resp.StatusCode]++
	bc.mu.Unlock()
	resp.Body = &countedBody{ReadCloser: resp.Body, bc: bc}
	return resp, nil
}

// answers returns how many answers carried status code; 0 counts all.
func (bc *bodyCounter) answers(code int) int {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	if code != 0 {
		return bc.status[code]
	}
	n := 0
	for _, k := range bc.status {
		n += k
	}
	return n
}

func (bc *bodyCounter) closedBodies() int {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	return bc.closed
}

type countedBody struct {
	io.ReadCloser
	bc   *bodyCounter
	once sync.Once
}

func (b *countedBody) Close() error {
	b.once.Do(func() {
		b.bc.mu.Lock()
		b.bc.closed++
		b.bc.mu.Unlock()
	})
	return b.ReadCloser.Close()
}

// putRecorder remembers the Content-Type and body size of every PUT it
// carries, and the body of the last.
type putRecorder struct {
	inner http.RoundTripper
	puts  []string
	sizes []int
	last  []byte
}

func (pr *putRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodPut {
		pr.puts = append(pr.puts, req.Header.Get("Content-Type"))
		body, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
		pr.last = body
		pr.sizes = append(pr.sizes, len(body))
		req.Body = io.NopCloser(bytes.NewReader(body))
	}
	return pr.inner.RoundTrip(req)
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
	// cross-model sharing; wholeWire is the pack a whole-model upload
	// would send per model.
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
		wholeWire += int64(len(packBytes(t, m)))

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

// TestConcurrentChunkPutsAreNotRetained: the hub reads each pack PUT
// into a recycled buffer and stores its records from there, so a store
// that kept the buffer would see a later upload overwrite an earlier
// chunk; and one client renders its packs into recycled buffers too.
// Distinct models published at once through one client must each load,
// and each of their chunks GET, back byte-identical. Run it with -race.
func TestConcurrentChunkPutsAreNotRetained(t *testing.T) {
	store, ts := newChunkServer(t)
	const workers, perWorker = 4, 8
	models := make([]*graph.Model, workers*perWorker)
	encs := make([]*cas.Encoded, len(models))
	for i := range models {
		models[i] = testModel(t, fmt.Sprintf("kept%02d", i), uint64(100+i))
		enc, err := cas.Encode(models[i], "", nil, 256)
		if err != nil {
			t.Fatal(err)
		}
		encs[i] = enc
	}
	c, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(encs); i += workers {
				if _, _, err := c.PublishEncoded(encs[i]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for i, m := range models {
		got, err := store.Load(repo.IDFor(m))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(somxBytes(t, got), somxBytes(t, m)) {
			t.Fatalf("model %d reads back changed after concurrent uploads", i)
		}
		for h, want := range encs[i].Chunks {
			if got, err := store.GetChunk(h); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("model %d: chunk %s reads back changed after concurrent uploads (%v)", i, h[:12], err)
			}
		}
	}
}

// TestLentBodyGoesBackOnlyOnceRead: a request body lent from a pool
// returns its buffer when the transport closes it after reading it to
// the end, once however often it is closed, and not at all when closed
// part-read — the transport may still be reading a body it gave up on.
func TestLentBodyGoesBackOnlyOnceRead(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	var pool bufPool
	partial := lend([]byte("partial"), &pool)
	if _, err := partial.Read(make([]byte, 3)); err != nil {
		t.Fatal(err)
	}
	partial.Close()
	if got := pool.get(); got != nil {
		t.Fatalf("a part-read body went back to the pool: %q", got[:cap(got)])
	}
	whole := lend([]byte("whole"), &pool)
	if _, err := io.ReadAll(whole); err != nil {
		t.Fatal(err)
	}
	whole.Close()
	whole.Close()
	if got := pool.get(); string(got[:cap(got)]) != "whole" {
		t.Fatalf("a body read to the end went back as %q", got[:cap(got)])
	}
	if got := pool.get(); got != nil {
		t.Fatal("a body closed twice went back twice")
	}
}
