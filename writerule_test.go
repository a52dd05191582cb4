package sommelier

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sommelier/internal/cas"
	"sommelier/internal/faults"
	"sommelier/internal/graph"
	"sommelier/internal/hub"
	"sommelier/internal/index"
	"sommelier/internal/repo"
)

// rollbackFails is a repository whose every delete fails, through a
// faults.FlakyStore that injects a connection error on each call.
type rollbackFails struct {
	*repo.Repository
	flaky *faults.FlakyStore
}

func (s rollbackFails) Delete(id string) error { return s.flaky.Delete(id) }

// writeFixture is an engine behind one front door to its write rule,
// over a repository the test reads behind the door's back.
type writeFixture struct {
	eng   *Engine
	store *repo.Repository
	// send publishes m through the door; a hub door's error is its
	// status and body.
	send func(m *graph.Model) error
}

// writeDoors are the engine's front doors. Each opens over eng, whose
// store is engStore: store itself, or a rollbackFails over it.
var writeDoors = []struct {
	name string
	open func(t *testing.T, eng *Engine, engStore repo.Store, store *repo.Repository) func(*graph.Model) error
}{
	{"register", func(t *testing.T, eng *Engine, _ repo.Store, _ *repo.Repository) func(*graph.Model) error {
		return func(m *graph.Model) error {
			_, err := eng.RegisterContext(context.Background(), m)
			return err
		}
	}},
	{"hub_pack", func(t *testing.T, eng *Engine, engStore repo.Store, _ *repo.Repository) func(*graph.Model) error {
		ts := writeHub(t, eng, engStore)
		return func(m *graph.Model) error {
			enc, err := cas.Encode(m, "", nil, 0)
			if err != nil {
				return err
			}
			pack, err := cas.EncodePack(nil, enc.Manifest, enc.Manifest.ChunkRefs(), enc.Chunk)
			if err != nil {
				return err
			}
			req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/models/"+repo.IDFor(m), bytes.NewReader(pack))
			if err != nil {
				return err
			}
			req.Header.Set("Content-Type", hub.ContentTypePack)
			resp, err := ts.Client().Do(req)
			if err != nil {
				return err
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode != http.StatusCreated {
				err = fmt.Errorf("pack PUT answered %d: %s", resp.StatusCode, body)
			}
			return err
		}
	}},
	{"hub_manifest", func(t *testing.T, eng *Engine, engStore repo.Store, _ *repo.Repository) func(*graph.Model) error {
		ts := writeHub(t, eng, engStore)
		client, err := hub.NewClient(ts.URL, ts.Client())
		if err != nil {
			t.Fatal(err)
		}
		return func(m *graph.Model) error {
			_, _, err := client.PublishModel(m)
			return err
		}
	}},
	{"replica", func(t *testing.T, eng *Engine, _ repo.Store, store *repo.Repository) func(*graph.Model) error {
		rep := &EngineReplica{store: store, eng: eng}
		return func(m *graph.Model) error {
			enc, err := cas.Encode(m, "", nil, 0)
			if err != nil {
				return err
			}
			_, err = rep.PublishEncoded(context.Background(), enc)
			return err
		}
	}},
}

// writeHub serves engStore on loopback with eng as its indexer.
func writeHub(t *testing.T, eng *Engine, engStore repo.Store) *httptest.Server {
	srv, err := hub.NewServer(engStore, hub.WithIndexer(eng))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

// openWrite builds door's fixture. failing swaps in failingAnalyzer,
// so every model after the first fails to index; rollbackFails makes
// every delete through the engine's store fail.
func openWrite(t *testing.T, door int, failing, deletesFail bool) *writeFixture {
	t.Helper()
	store := repo.NewInMemory()
	var engStore repo.Store = store
	if deletesFail {
		inj, err := faults.NewInjector(faults.Config{ConnErrorRate: 1})
		if err != nil {
			t.Fatal(err)
		}
		engStore = rollbackFails{store, faults.NewFlakyStore(store, inj)}
	}
	eng, err := NewEngine(engStore, WithSeed(5), WithValidationSize(40))
	if err != nil {
		t.Fatal(err)
	}
	if failing {
		withAnalyzer(eng, failingAnalyzer{})
	}
	return &writeFixture{eng: eng, store: store, send: writeDoors[door].open(t, eng, engStore, store)}
}

// TestWriteRule drives the engine's one write rule, Accept, through
// every front door: RegisterContext, a hub PUT on loopback over the
// engine's own store (a complete pack, and hub_manifest: the client's
// negotiation, the manifest alone and then the chunks the hub names),
// and EngineReplica.PublishEncoded. Every row holds at every door.
func TestWriteRule(t *testing.T) {
	a := registerTestModel(t, "rule-a", 1)
	b := registerTestModel(t, "rule-b", 2)
	bID := repo.IDFor(b)
	// indexedA is a fixture whose engine indexed a, so that b — with a
	// partner to analyze — fails to index.
	indexedA := func(t *testing.T, door int, deletesFail bool) *writeFixture {
		f := openWrite(t, door, true, deletesFail)
		if _, err := f.eng.RegisterContext(context.Background(), a); err != nil {
			t.Fatalf("first model has no analysis partners, want success: %v", err)
		}
		return f
	}
	rows := []struct {
		name string
		run  func(t *testing.T, door int)
	}{
		{"fresh_upload_that_fails_to_index_is_deleted", func(t *testing.T, door int) {
			f := indexedA(t, door, false)
			if err := f.send(b); err == nil {
				t.Fatal("expected an index failure")
			}
			if _, err := f.store.Load(bID); !errors.Is(err, repo.ErrNotFound) {
				t.Fatalf("failed upload left in store: load err = %v", err)
			}
			if n := f.eng.IndexedLen(); n != 1 {
				t.Fatalf("IndexedLen = %d, want 1", n)
			}
		}},
		{"overwrite_that_fails_to_index_is_kept", func(t *testing.T, door int) {
			f := indexedA(t, door, false)
			if _, err := f.store.Publish(b); err != nil {
				t.Fatal(err)
			}
			if err := f.send(b); err == nil {
				t.Fatal("expected an index failure")
			}
			if _, err := f.store.Load(bID); err != nil {
				t.Fatalf("rollback deleted a pre-existing model: %v", err)
			}
		}},
		{"failed_rollback_is_reported", func(t *testing.T, door int) {
			f := indexedA(t, door, true)
			err := f.send(b)
			if strings.HasPrefix(writeDoors[door].name, "hub") {
				if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q is published but not indexed", bID)) {
					t.Fatalf("err = %v, want a 500 naming %q published but not indexed", err, bID)
				}
			} else if !errors.Is(err, ErrPublishedUnindexed) {
				t.Fatalf("err = %v, want ErrPublishedUnindexed", err)
			}
			if _, err := f.store.Load(bID); err != nil {
				t.Fatalf("stranded model missing from store: %v", err)
			}
			if n := f.eng.IndexedLen(); n != 1 {
				t.Fatalf("IndexedLen = %d, want 1", n)
			}
		}},
		{"already_indexed_id_fails_register_only", func(t *testing.T, door int) {
			f := indexedA(t, door, false)
			err := f.send(a)
			if writeDoors[door].name == "register" {
				if !errors.Is(err, index.ErrAlreadyIndexed) {
					t.Fatalf("err = %v, want index.ErrAlreadyIndexed", err)
				}
			} else if err != nil {
				t.Fatalf("re-publishing an indexed ID: %v", err)
			}
			if _, err := f.store.Load(repo.IDFor(a)); err != nil {
				t.Fatalf("indexed model missing from store: %v", err)
			}
		}},
		{"frozen_trunk_series_resumes_from_cached_cuts", func(t *testing.T, door int) {
			f := openWrite(t, door, false, false)
			for _, m := range fineTunedSeries(t, 1) {
				if err := f.send(m); err != nil {
					t.Fatal(err)
				}
			}
			if hits := f.eng.Observer().Snapshot().Counters["catalog_prefix_hits_total"]; hits == 0 {
				t.Fatal("no publish resumed from a cached cut: the door indexed without identities")
			}
		}},
	}
	for door, d := range writeDoors {
		for _, row := range rows {
			t.Run(d.name+"/"+row.name, func(t *testing.T) { row.run(t, door) })
		}
	}
}
