package sommelier

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"sommelier/internal/catalog"
	"sommelier/internal/faults"
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

// TestRegisterRollsBackOnIndexFailure: a model that publishes but fails
// to index must not linger in the repository — "published implies
// indexed" survives the failure.
func TestRegisterRollsBackOnIndexFailure(t *testing.T) {
	store := repo.NewInMemory()
	eng, err := NewEngine(store, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	withAnalyzer(eng, failingAnalyzer{})

	a := registerTestModel(t, "roll-a", 1)
	if _, err := eng.RegisterContext(context.Background(), a); err != nil {
		t.Fatalf("first model has no analysis partners, want success: %v", err)
	}

	b := registerTestModel(t, "roll-b", 2)
	if _, err := eng.RegisterContext(context.Background(), b); err == nil {
		t.Fatal("expected index failure")
	}
	if _, err := store.Load(repo.IDFor(b)); !errors.Is(err, repo.ErrNotFound) {
		t.Fatalf("failed registration left model in store: load err = %v", err)
	}
	if eng.IndexedLen() != 1 {
		t.Fatalf("IndexedLen = %d, want 1", eng.IndexedLen())
	}
}

// TestRegisterKeepsPreexistingOnIndexFailure: when the publish
// overwrote an already stored version, rollback must NOT delete — the
// slot held real data before this call.
func TestRegisterKeepsPreexistingOnIndexFailure(t *testing.T) {
	store := repo.NewInMemory()
	eng, err := NewEngine(store, WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	withAnalyzer(eng, failingAnalyzer{})

	if _, err := eng.RegisterContext(context.Background(), registerTestModel(t, "keep-a", 1)); err != nil {
		t.Fatal(err)
	}
	b := registerTestModel(t, "keep-b", 2)
	if _, err := store.Publish(b); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RegisterContext(context.Background(), b); err == nil {
		t.Fatal("expected index failure")
	}
	if _, err := store.Load(repo.IDFor(b)); err != nil {
		t.Fatalf("rollback deleted a pre-existing model: %v", err)
	}
}

// TestRegisterSurfacesErrPublishedUnindexed: when indexing fails AND
// the rollback delete fails too, the caller must learn the store and
// index are out of sync.
func TestRegisterSurfacesErrPublishedUnindexed(t *testing.T) {
	// Find an injector seed whose first three store faults are
	// none, none, conn-error: Publish(a) ok, Publish(b) ok, Delete(b)
	// fails. The sequence is deterministic per seed.
	cfg := faults.Config{ConnErrorRate: 0.3}
	var seed uint64
	for seed = 0; seed < 10000; seed++ {
		cfg.Seed = seed
		inj, err := faults.NewInjector(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if inj.Next() == faults.None && inj.Next() == faults.None && inj.Next() == faults.ConnError {
			break
		}
	}
	if seed == 10000 {
		t.Fatal("no injector seed found for the none,none,conn-error pattern")
	}
	cfg.Seed = seed
	inj, err := faults.NewInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inner := repo.NewInMemory()
	store := faults.NewFlakyStore(inner, inj)
	eng, err := NewEngine(store, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	withAnalyzer(eng, failingAnalyzer{})

	if _, err := eng.RegisterContext(context.Background(), registerTestModel(t, "sync-a", 1)); err != nil {
		t.Fatal(err)
	}
	b := registerTestModel(t, "sync-b", 2)
	_, err = eng.RegisterContext(context.Background(), b)
	if !errors.Is(err, ErrPublishedUnindexed) {
		t.Fatalf("err = %v, want ErrPublishedUnindexed", err)
	}
	// The model really is stranded: published, not indexed.
	if _, err := inner.Load(repo.IDFor(b)); err != nil {
		t.Fatalf("stranded model missing from store: %v", err)
	}
	if eng.IndexedLen() != 1 {
		t.Fatalf("IndexedLen = %d, want 1", eng.IndexedLen())
	}
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
