package hub

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sommelier/internal/cas"
	"sommelier/internal/graph"
	"sommelier/internal/repo"
	"sommelier/internal/tensor"
)

func testModel(t testing.TB, name string, seed uint64) *graph.Model {
	t.Helper()
	b := graph.NewBuilder(name, graph.TaskClassification, tensor.Shape{4}, tensor.NewRNG(seed))
	b.Dense(6)
	b.ReLU()
	b.Dense(3)
	b.Softmax()
	b.Meta("series", "hub-series")
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func newHub(t testing.TB) (*httptest.Server, *Client, *repo.Repository) {
	t.Helper()
	store := repo.NewInMemory()
	srv, err := NewServer(store)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	client, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	return ts, client, store
}

func TestNewServerNilStore(t *testing.T) {
	if _, err := NewServer(nil); err == nil {
		t.Fatal("expected nil-store error")
	}
}

func TestNewClientValidation(t *testing.T) {
	if _, err := NewClient("not a url", nil); err == nil {
		t.Fatal("expected URL error")
	}
	if _, err := NewClient("", nil); err == nil {
		t.Fatal("expected empty-URL error")
	}
}

func TestPublishLoadRoundTrip(t *testing.T) {
	_, client, store := newHub(t)
	m := testModel(t, "remote", 1)
	id, _, err := client.PublishModel(m)
	if err != nil {
		t.Fatal(err)
	}
	if id != "remote@1" {
		t.Fatalf("id = %q", id)
	}
	if store.Len() != 1 {
		t.Fatal("server store not updated")
	}

	got, err := client.Load(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(somxBytes(t, got), somxBytes(t, m)) {
		t.Fatal("round-trip changed the model")
	}
}

func TestLoadUsesCache(t *testing.T) {
	ts, client, store := newHub(t)
	m := testModel(t, "cached", 2)
	id, _, err := client.PublishModel(m)
	if err != nil {
		t.Fatal(err)
	}
	// Remove from the server; a cached load must still succeed.
	if err := store.Delete(id); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Load(id); err != nil {
		t.Fatalf("cached load failed: %v", err)
	}
	// A fresh client sees the deletion.
	fresh, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Load(id); err == nil {
		t.Fatal("expected not-found from fresh client")
	}
}

func TestListMetadata(t *testing.T) {
	ts, client, _ := newHub(t)
	// An empty hub lists as an empty JSON array, not null.
	resp, err := ts.Client().Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(body)); got != "[]" {
		t.Fatalf("empty hub lists as %q, want []", got)
	}
	if _, _, err := client.PublishModel(testModel(t, "a", 1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.PublishModel(testModel(t, "b", 2)); err != nil {
		t.Fatal(err)
	}
	list, err := client.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Fatalf("list = %+v", list)
	}
	if list[0].Series != "hub-series" || list[0].Task != graph.TaskClassification {
		t.Fatalf("metadata lost: %+v", list[0])
	}
}

// failingIndexer publishes, then fails to index.
type failingIndexer struct{}

func (failingIndexer) Accept(_ context.Context, _ string, publish func() (*graph.Model, cas.Identity, error)) error {
	if _, _, err := publish(); err != nil {
		return err
	}
	return errors.New("analysis failed")
}

// TestIndexErrorIs500AndMovesGeneration: an upload its indexer fails on
// is answered 500 naming the ID, and the answer moves the generation —
// the store changed, whatever the indexer's rollback did. The rollback
// rule itself is the indexer's (the root package's write-rule test).
func TestIndexErrorIs500AndMovesGeneration(t *testing.T) {
	srv, err := NewServer(repo.NewInMemory(), WithIndexer(failingIndexer{}))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	enc, err := cas.Encode(testModel(t, "orphan", 5), "", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	pack, err := cas.EncodePack(nil, enc.Manifest, enc.Chunk)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/models/orphan@1", bytes.NewReader(pack))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ContentTypePack)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), `indexing "orphan@1": analysis failed`) {
		t.Fatalf("PUT answered %d %q, want 500 naming the index failure", resp.StatusCode, body)
	}
	if _, g, err := parseGen(resp.Header.Get(HeaderGeneration)); err != nil || g != 1 {
		t.Fatalf("500 carries generation %q (%v), want count 1", resp.Header.Get(HeaderGeneration), err)
	}
}

func TestDelete(t *testing.T) {
	_, client, store := newHub(t)
	id, _, err := client.PublishModel(testModel(t, "gone", 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Delete(id); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 0 {
		t.Fatal("server kept deleted model")
	}
	if _, err := client.Load(id); err == nil {
		t.Fatal("deleted model still loads")
	}
}

func TestPublishRejectsInvalid(t *testing.T) {
	_, client, _ := newHub(t)
	bad := &graph.Model{Name: "bad", Version: "1", InputShape: tensor.Shape{2}}
	if _, _, err := client.PublishModel(bad); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestServerRejectsIdentityMismatch(t *testing.T) {
	ts, _, store := newHub(t)
	m := testModel(t, "honest", 4)
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/models/liar@9", bytes.NewReader(packBytes(t, m)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ContentTypePack)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if store.Len() != 0 {
		t.Fatal("mismatched publish left residue")
	}
}

// TestModelPutOfAnotherBodyIs415: a model PUT carries a pack or a
// manifest. A SOMX body (graph's JSON encoding) or an untyped one is
// refused as an unsupported media type before it is read, and nothing
// is stored.
func TestModelPutOfAnotherBodyIs415(t *testing.T) {
	ts, _, store := newHub(t)
	somx := somxBytes(t, testModel(t, "legacy", 6))
	for _, ct := range []string{"application/x-somx", ""} {
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/models/legacy@1", bytes.NewReader(somx))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", ct)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnsupportedMediaType {
			t.Errorf("PUT of a %q body: status %d, want 415", ct, resp.StatusCode)
		}
	}
	if store.Len() != 0 {
		t.Fatal("a refused PUT stored a model")
	}
}

func TestServerMethodValidation(t *testing.T) {
	ts, _, _ := newHub(t)
	resp, err := http.Post(ts.URL+"/v1/models", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/models status = %d", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodPatch, ts.URL+"/v1/models/x", nil)
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("PATCH status = %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/models/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty id status = %d", resp.StatusCode)
	}
}

func TestMirrorThenIndexLocally(t *testing.T) {
	_, client, _ := newHub(t)
	for i := 0; i < 3; i++ {
		if _, _, err := client.PublishModel(testModel(t, "m"+string(rune('a'+i)), uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	local := repo.NewInMemory()
	n, err := client.Mirror(local)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || local.Len() != 3 {
		t.Fatalf("mirrored %d, local %d", n, local.Len())
	}
	// The mirrored models are loadable and intact.
	for _, md := range local.List() {
		if _, err := local.Load(md.ID); err != nil {
			t.Fatal(err)
		}
	}
}

func TestClientNetworkErrors(t *testing.T) {
	// A hub that is down: every operation surfaces a transport error.
	client, err := NewClient("http://127.0.0.1:1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Load("x@1"); err == nil {
		t.Fatal("expected connection error on Load")
	}
	if _, err := client.List(); err == nil {
		t.Fatal("expected connection error on List")
	}
	if err := client.Delete("x@1"); err == nil {
		t.Fatal("expected connection error on Delete")
	}
	if _, _, err := client.PublishModel(testModel(t, "m", 1)); err == nil {
		t.Fatal("expected connection error on Publish")
	}
	local := repo.NewInMemory()
	if _, err := client.Mirror(local); err == nil {
		t.Fatal("expected connection error on Mirror")
	}
}

func TestClientRejectsCorruptResponses(t *testing.T) {
	// A hub that answers garbage: decode errors must surface, not panic.
	garbage := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("not json at all"))
	}))
	defer garbage.Close()
	client, err := NewClient(garbage.URL, garbage.Client())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Load("x@1"); err == nil {
		t.Fatal("expected decode error on Load")
	}
	if _, err := client.List(); err == nil {
		t.Fatal("expected decode error on List")
	}
}

func TestReadErrorTruncates(t *testing.T) {
	long := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, strings.Repeat("x", 2000), http.StatusTeapot)
	}))
	defer long.Close()
	client, err := NewClient(long.URL, long.Client())
	if err != nil {
		t.Fatal(err)
	}
	_, err = client.Load("x@1")
	if err == nil {
		t.Fatal("expected error")
	}
	if len(err.Error()) > 700 {
		t.Fatalf("error message not truncated: %d bytes", len(err.Error()))
	}
}
