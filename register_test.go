package sommelier

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"sommelier/internal/catalog"
	"sommelier/internal/graph"
	"sommelier/internal/index"
	"sommelier/internal/repo"
	"sommelier/internal/zoo"
)

// failingAnalyzer errors on every pairwise analysis, so the first
// registered model (no partners) indexes fine and every later one
// fails mid-pipeline — the natural way to reach Register's rollback
// path, which real analyzers almost never fail into.
type failingAnalyzer struct{}

func (failingAnalyzer) Analyze(ref, cand index.Entry) (index.AnalysisResult, error) {
	return index.AnalysisResult{}, errors.New("synthetic analysis failure")
}

// withAnalyzer swaps the engine's catalog for one using the given
// analyzer, keeping the engine's seed and store.
func withAnalyzer(e *Engine, a index.Analyzer) {
	e.cat = catalog.New(catalog.Config{Seed: e.cfg.cat.Seed, Analyzer: a})
}

func registerTestModel(t testing.TB, name string, seed uint64) *graph.Model {
	t.Helper()
	m, err := zoo.DenseResidualNet(zoo.Config{Name: name, Seed: seed, Width: 8, Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRegisterAnnotatedAtomic: a bad annotation applies no edges, even
// though valid edges were staged before the bad one.
func TestRegisterAnnotatedAtomic(t *testing.T) {
	store := repo.NewInMemory()
	eng, err := NewEngine(store, WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	withAnalyzer(eng, silentRootAnalyzer{})

	aID, err := eng.RegisterContext(context.Background(), registerTestModel(t, "ann-a", 1))
	if err != nil {
		t.Fatal(err)
	}
	bID, err := eng.RegisterContext(context.Background(), registerTestModel(t, "ann-b", 2))
	if err != nil {
		t.Fatal(err)
	}

	c := registerTestModel(t, "ann-c", 3)
	if _, err := eng.RegisterAnnotatedContext(context.Background(), c, map[string]float64{
		aID: 0.9, bID: 0.8, "ghost@v1": 0.7,
	}); err == nil {
		t.Fatal("expected error for unindexed annotation reference")
	}
	// No half-applied symmetric edges on the annotated partners.
	for _, id := range []string{aID, bID} {
		got, err := eng.TopEquivalents(id, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 {
			t.Fatalf("partial annotation applied to %q: %+v", id, got)
		}
	}

	d := registerTestModel(t, "ann-d", 4)
	dID, err := eng.RegisterAnnotatedContext(context.Background(), d, map[string]float64{aID: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.TopEquivalents(aID, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != dID || got[0].Level != 0.9 {
		t.Fatalf("annotation edge missing on partner: %+v", got)
	}
}

// silentRootAnalyzer reports zero equivalence without erroring, so
// annotation edges are the only edges in the index.
type silentRootAnalyzer struct{}

func (silentRootAnalyzer) Analyze(ref, cand index.Entry) (index.AnalysisResult, error) {
	return index.AnalysisResult{}, nil
}

// TestIndexAllSkipsConcurrentlyIndexed: a model indexed between
// IndexAll's snapshot read and its commit stage is deduplicated inside
// the commit's critical section, not double-inserted and not an error.
func TestIndexAllSkipsConcurrentlyIndexed(t *testing.T) {
	store := repo.NewInMemory()
	eng, err := NewEngine(store, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	withAnalyzer(eng, silentRootAnalyzer{})

	var models []*graph.Model
	for i := 0; i < 4; i++ {
		m := registerTestModel(t, fmt.Sprintf("toctou-%d", i), uint64(20+i))
		models = append(models, m)
		if _, err := store.Publish(m); err != nil {
			t.Fatal(err)
		}
	}
	// Sneak one in through the single-model path first; IndexAll must
	// skip it and index the rest exactly once.
	if err := eng.IndexModel(context.Background(), repo.IDFor(models[1]), models[1]); err != nil {
		t.Fatal(err)
	}
	if err := eng.IndexAllContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if eng.IndexedLen() != 4 {
		t.Fatalf("IndexedLen = %d, want 4", eng.IndexedLen())
	}
	// Idempotent: a second pass finds nothing to do.
	if err := eng.IndexAllContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if eng.IndexedLen() != 4 {
		t.Fatalf("IndexedLen after second pass = %d, want 4", eng.IndexedLen())
	}
}

// TestTopEquivalentsLeavesSnapshotIntact: TopEquivalents reads the
// published candidate list without copying it, so it must answer that
// list's own records, best first, and leave it as it found it for
// every later query.
func TestTopEquivalentsLeavesSnapshotIntact(t *testing.T) {
	eng, refID, _ := newEngineWithLadder(t, false)
	list, err := eng.cat.Snapshot().Lookup(refID, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(list)
	for range 2 {
		got, err := eng.TopEquivalents(refID, len(want))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("TopEquivalents returned %d results, want %d", len(got), len(want))
		}
		for i, r := range got {
			if r.ID != candProfileID(want[i]) || r.Level != want[i].Level {
				t.Fatalf("TopEquivalents[%d] = %s at %v, want %s at %v",
					i, r.ID, r.Level, candProfileID(want[i]), want[i].Level)
			}
		}
	}
	if after, _ := eng.cat.Snapshot().Lookup(refID, 0); !reflect.DeepEqual(after, want) {
		t.Fatal("TopEquivalents rewrote the snapshot's candidate list")
	}
}
