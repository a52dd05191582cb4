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
	"sommelier/internal/faults"
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

type failingIndexer struct{}

func (failingIndexer) IndexPublished(context.Context, string, *graph.Model, cas.Identity) error {
	return errors.New("analysis failed")
}

// TestFailedRollbackIsReported: when indexing an upload fails and the
// rollback delete fails too, the model is left published but unindexed
// and the 500 must say so — for a pack PUT and a manifest PUT alike.
func TestFailedRollbackIsReported(t *testing.T) {
	// Find an injector seed whose store faults are none for each store
	// call the PUT makes before indexing, then conn-error: the rollback
	// Delete fails. The sequence is deterministic per seed.
	seedFor := func(t *testing.T, before int) faults.Config {
		cfg := faults.Config{ConnErrorRate: 0.3}
	seeds:
		for ; cfg.Seed < 10000; cfg.Seed++ {
			inj, err := faults.NewInjector(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < before; i++ {
				if inj.Next() != faults.None {
					continue seeds
				}
			}
			if inj.Next() == faults.ConnError {
				return cfg
			}
		}
		t.Fatalf("no injector seed found for %d nones, then conn-error", before)
		return cfg
	}
	for _, tc := range []struct {
		name string
		// before counts the faultable store calls ahead of the rollback.
		before int
		store  func(inner *repo.Repository, inj *faults.Injector) repo.Store
	}{
		// FlakyStore has no chunk surface, so the publish falls back to
		// one pack PUT, which calls the flaky Publish.
		{"pack", 1, func(inner *repo.Repository, inj *faults.Injector) repo.Store {
			return faults.NewFlakyStore(inner, inj)
		}},
		// Lent the repository's chunk surface, the same store takes the
		// manifest PUT, which publishes and hands the indexer the model
		// through the chunk surface. Delete stays flaky.
		{"manifest", 0, func(inner *repo.Repository, inj *faults.Injector) repo.Store {
			return struct {
				*faults.FlakyStore
				ChunkStore
			}{faults.NewFlakyStore(inner, inj), inner}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inj, err := faults.NewInjector(seedFor(t, tc.before))
			if err != nil {
				t.Fatal(err)
			}
			inner := repo.NewInMemory()
			srv, err := NewServer(tc.store(inner, inj), WithIndexer(failingIndexer{}))
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv)
			defer ts.Close()
			client, err := NewClient(ts.URL, ts.Client())
			if err != nil {
				t.Fatal(err)
			}
			_, _, err = client.PublishModel(testModel(t, "orphan", 5))
			var se *StatusError
			if !errors.As(err, &se) || se.Code != http.StatusInternalServerError {
				t.Fatalf("publish: %v, want a *StatusError 500", err)
			}
			if !strings.Contains(err.Error(), `"orphan@1" is published but not indexed`) {
				t.Fatalf("500 does not name the orphaned model: %v", err)
			}
			if _, err := inner.Load("orphan@1"); err != nil {
				t.Fatalf("orphaned model missing from store: %v", err)
			}
		})
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
