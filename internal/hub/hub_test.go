package hub

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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
	id, err := client.Publish(m)
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
	if got.Fingerprint() != m.Fingerprint() {
		t.Fatal("round-trip changed the model")
	}
}

func TestLoadUsesCache(t *testing.T) {
	ts, client, store := newHub(t)
	m := testModel(t, "cached", 2)
	id, err := client.Publish(m)
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
	if _, err := client.Publish(testModel(t, "a", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Publish(testModel(t, "b", 2)); err != nil {
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

func (failingIndexer) IndexModel(context.Context, string, *graph.Model) error {
	return errors.New("analysis failed")
}

// TestFailedRollbackIsReported: when indexing an upload fails and the
// rollback delete fails too, the model is left published but unindexed
// and the 500 must say so — for a whole-model PUT and a manifest PUT
// alike.
func TestFailedRollbackIsReported(t *testing.T) {
	// Find an injector seed whose first two store faults are none,
	// conn-error: Publish (whole-model) or Load (manifest) ok, then the
	// rollback Delete fails. The sequence is deterministic per seed.
	cfg := faults.Config{ConnErrorRate: 0.3}
	for ; cfg.Seed < 10000; cfg.Seed++ {
		inj, err := faults.NewInjector(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if inj.Next() == faults.None && inj.Next() == faults.ConnError {
			break
		}
	}
	if cfg.Seed == 10000 {
		t.Fatal("no injector seed found for the none,conn-error pattern")
	}
	for _, tc := range []struct {
		name    string
		publish func(*Client, *graph.Model) error
	}{
		{"somx", func(c *Client, m *graph.Model) error { _, err := c.Publish(m); return err }},
		{"manifest", func(c *Client, m *graph.Model) error { _, _, err := c.PublishModel(m); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inj, err := faults.NewInjector(cfg)
			if err != nil {
				t.Fatal(err)
			}
			inner := repo.NewInMemory()
			// FlakyStore has no chunk surface; lend it the repository's
			// so the manifest PUT is reachable. Delete stays flaky.
			store := struct {
				*faults.FlakyStore
				ChunkStore
			}{faults.NewFlakyStore(inner, inj), inner}
			srv, err := NewServer(store, WithIndexer(failingIndexer{}))
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv)
			defer ts.Close()
			client, err := NewClient(ts.URL, ts.Client())
			if err != nil {
				t.Fatal(err)
			}
			err = tc.publish(client, testModel(t, "orphan", 5))
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
	id, err := client.Publish(testModel(t, "gone", 3))
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
	if _, err := client.Publish(bad); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestServerRejectsIdentityMismatch(t *testing.T) {
	ts, _, store := newHub(t)
	m := testModel(t, "honest", 4)
	var body strings.Builder
	if err := graph.Encode(&body, m); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/models/liar@9", strings.NewReader(body.String()))
	if err != nil {
		t.Fatal(err)
	}
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
		if _, err := client.Publish(testModel(t, "m"+string(rune('a'+i)), uint64(i+1))); err != nil {
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
	if _, err := client.Publish(testModel(t, "m", 1)); err == nil {
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
