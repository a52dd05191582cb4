package sommelier

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"sommelier/internal/graph"
	"sommelier/internal/hub"
	"sommelier/internal/repo"
	"sommelier/internal/zoo"
)

// fineTunedSeries is n series of 16 models shaped like the hub
// population: a dense-residual base, then variants cycling through a
// sparse edit of every weight matrix, a frozen-trunk transfer (a new
// head only) and a transfer that tunes the last trunk layer.
func fineTunedSeries(t testing.TB, n int) []*graph.Model {
	t.Helper()
	const depth, trunk = 3, 1 + 2*3
	var models []*graph.Model
	for s := 0; s < n; s++ {
		series := fmt.Sprintf("fts%d", s)
		base, err := zoo.DenseResidualNet(zoo.Config{Name: series + "-base", Seed: uint64(70 + s), Width: 16, Depth: depth, Series: series})
		if err != nil {
			t.Fatal(err)
		}
		base.Version = "1"
		models = append(models, base)
		for i := 1; i < 16; i++ {
			name := fmt.Sprintf("%s-v%02d", series, i)
			var v *graph.Model
			switch i % 3 {
			case 0:
				v, err = zoo.SparseEdit(base, name, 4, uint64(100*s+i))
			case 1:
				v, err = zoo.Transfer(base, name, 8, trunk, 0, uint64(100*s+i))
			default:
				v, err = zoo.Transfer(base, name, 8, trunk-1, 0.02, uint64(100*s+i))
			}
			if err != nil {
				t.Fatal(err)
			}
			v.Version = "1"
			v.Metadata["series"] = series
			models = append(models, v)
		}
	}
	return models
}

func saveIndexes(t *testing.T, eng *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := eng.SaveIndexes(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestHubPublishedSeriesMatchesColdIndex: a fine-tuned series published
// through a hub on loopback is indexed with the identities of the
// manifests the hub hydrated, so its variants' sweeps resume from their
// bases' trunks — at least 9 of each 16-model series — and yet
// SaveIndexes is byte-identical, at 1, 2 and 4 index workers, to what a
// fresh engine's IndexAllContext over the same models writes, which has
// no identities and runs every observation cold.
func TestHubPublishedSeriesMatchesColdIndex(t *testing.T) {
	const series = 2
	models := fineTunedSeries(t, series)
	var want []byte
	for _, workers := range []int{1, 2, 4} {
		store := repo.NewInMemory()
		opts := []Option{WithSeed(5), WithValidationSize(40), WithIndexWorkers(workers)}
		eng, err := NewEngine(store, opts...)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := hub.NewServer(store, hub.WithIndexer(eng))
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		client, err := hub.NewClient(ts.URL, ts.Client())
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range models {
			if _, _, err := client.PublishModel(m); err != nil {
				t.Fatal(err)
			}
		}
		ts.Close()
		got := saveIndexes(t, eng)
		snap := eng.Observer().Snapshot()
		if hits := snap.Counters["catalog_prefix_hits_total"]; hits < 9*series {
			t.Fatalf("%d workers: %d of %d publishes resumed from a cached cut, want ≥ 9 per series", workers, hits, len(models))
		}
		if snap.Counters["catalog_sigma_hits_total"] == 0 || snap.Gauges["catalog_prefix_cache_bytes"] == 0 {
			t.Fatalf("%d workers: σ memo hits %d, prefix cache %d bytes", workers,
				snap.Counters["catalog_sigma_hits_total"], snap.Gauges["catalog_prefix_cache_bytes"])
		}
		if want == nil {
			cold, err := NewEngine(store, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if err := cold.IndexAllContext(context.Background()); err != nil {
				t.Fatal(err)
			}
			if hits := cold.Observer().Snapshot().Counters["catalog_prefix_hits_total"]; hits != 0 {
				t.Fatalf("IndexAllContext over loaded models resumed %d sweeps; it has no identities", hits)
			}
			want = saveIndexes(t, cold)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%d workers: SaveIndexes after hub publishes differs from the cold IndexAllContext's", workers)
		}
	}
}

// TestRegisterAfterOverwriteMissesOldPrefix: the memos are keyed by
// content, never by model ID. Once a base's trunk is cached, a base
// overwritten in place with other content gives its next variant no
// hit: the variant's trunk identities are the new base's.
func TestRegisterAfterOverwriteMissesOldPrefix(t *testing.T) {
	ctx := context.Background()
	store := repo.NewInMemory()
	eng, err := NewEngine(store, WithSeed(5), WithValidationSize(40))
	if err != nil {
		t.Fatal(err)
	}
	counter := func(name string) int64 { return eng.Observer().Snapshot().Counters[name] }
	models := fineTunedSeries(t, 1)
	base := models[0]
	// v01, v04: frozen-trunk transfers; the second resumes.
	for _, m := range []*graph.Model{base, models[1], models[4]} {
		if _, err := eng.RegisterContext(ctx, m); err != nil {
			t.Fatal(err)
		}
	}
	if hits := counter("catalog_prefix_hits_total"); hits != 1 {
		t.Fatalf("second frozen-trunk variant: %d prefix hits, want 1", hits)
	}
	changed := zoo.Perturb(base, base.Name, 0.05, 9)
	changed.Version = base.Version
	if _, err := store.Publish(changed); err != nil {
		t.Fatal(err)
	}
	v, err := zoo.Transfer(changed, "fts0-after", 8, 7, 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	v.Version = "1"
	misses := counter("catalog_prefix_misses_total")
	if _, err := eng.RegisterContext(ctx, v); err != nil {
		t.Fatal(err)
	}
	if hits := counter("catalog_prefix_hits_total"); hits != 1 || counter("catalog_prefix_misses_total") != misses+1 {
		t.Fatalf("a variant of the overwritten base: %d hits, %d misses (was %d); it reused the old trunk",
			hits, counter("catalog_prefix_misses_total"), misses)
	}
}
