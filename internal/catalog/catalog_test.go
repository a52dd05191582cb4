package catalog

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"sommelier/internal/dataset"
	"sommelier/internal/index"
	"sommelier/internal/resource"
	"sommelier/internal/tensor"
	"sommelier/internal/zoo"
)

// silentAnalyzer reports no equivalence at all — useful when a test
// wants the index populated without any analysis-derived edges.
type silentAnalyzer struct{}

func (silentAnalyzer) Analyze(ref, cand index.Entry) (index.AnalysisResult, error) {
	return index.AnalysisResult{}, nil
}

func testModel(t testing.TB, name string, seed uint64) *index.Entry {
	t.Helper()
	m, err := zoo.DenseResidualNet(zoo.Config{Name: name, Seed: seed, Width: 8, Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	return &index.Entry{ID: name + "@v1", Model: m}
}

func TestAnnotateAtomic(t *testing.T) {
	c := New(Config{Seed: 1, Analyzer: silentAnalyzer{}})
	a := testModel(t, "a", 1)
	b := testModel(t, "b", 2)
	if err := c.Index(context.Background(), a.ID, a.Model); err != nil {
		t.Fatal(err)
	}
	if err := c.Index(context.Background(), b.ID, b.Model); err != nil {
		t.Fatal(err)
	}

	// One bad reference must leave every edge unapplied — including the
	// valid b edge staged before the bad one is reached.
	err := c.Annotate(a.ID, map[string]float64{b.ID: 0.9, "ghost@v1": 0.8})
	if err == nil {
		t.Fatal("expected error for unindexed annotation reference")
	}
	for _, id := range []string{a.ID, b.ID} {
		cands, err := c.Snapshot().Lookup(id, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(cands) != 0 {
			t.Fatalf("partial annotation applied: %q has %d candidates", id, len(cands))
		}
	}

	// Out-of-range levels are rejected before touching the index.
	if err := c.Annotate(a.ID, map[string]float64{b.ID: 1.5}); err == nil {
		t.Fatal("expected error for out-of-range level")
	}

	// A fully valid annotation lands symmetrically.
	if err := c.Annotate(a.ID, map[string]float64{b.ID: 0.9}); err != nil {
		t.Fatal(err)
	}
	got, err := c.Snapshot().Lookup(b.ID, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != a.ID || got[0].Level != 0.9 {
		t.Fatalf("symmetric annotation edge missing: %+v", got)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	c := New(Config{Seed: 2, Analyzer: silentAnalyzer{}})
	a := testModel(t, "iso-a", 3)
	if err := c.Index(context.Background(), a.ID, a.Model); err != nil {
		t.Fatal(err)
	}
	old := c.Snapshot()
	if old.Len() != 1 || !old.Contains(a.ID) {
		t.Fatalf("snapshot before second commit: len=%d", old.Len())
	}

	b := testModel(t, "iso-b", 4)
	if err := c.Index(context.Background(), b.ID, b.Model); err != nil {
		t.Fatal(err)
	}
	// The old snapshot is immutable: the new commit must not leak into it.
	if old.Len() != 1 || old.Contains(b.ID) {
		t.Fatalf("old snapshot mutated: len=%d contains(b)=%v", old.Len(), old.Contains(b.ID))
	}
	if _, ok := old.Profile(b.ID); ok {
		t.Fatal("old snapshot sees new profile")
	}
	cur := c.Snapshot()
	if cur.Len() != 2 || !cur.Contains(b.ID) {
		t.Fatalf("current snapshot stale: len=%d", cur.Len())
	}
}

func TestIndexBatchSkipsDuplicates(t *testing.T) {
	c := New(Config{Seed: 3, Analyzer: silentAnalyzer{}})
	a := testModel(t, "dup-a", 5)
	if err := c.Index(context.Background(), a.ID, a.Model); err != nil {
		t.Fatal(err)
	}
	b := testModel(t, "dup-b", 6)
	n, err := c.IndexBatch(context.Background(), []index.Entry{*a, *b, *b})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("committed %d models, want 1 (a pre-indexed, b duplicated in batch)", n)
	}
	if c.Snapshot().Len() != 2 {
		t.Fatalf("snapshot len = %d, want 2", c.Snapshot().Len())
	}
}

// exportJSON serializes the catalog's full persistent state; byte
// equality of two exports means byte-identical index contents.
func exportJSON(t *testing.T, c *Catalog) []byte {
	t.Helper()
	sem, res, refs := c.Export()
	data, err := json.Marshal(struct {
		Sem  index.SemanticSnapshot
		Res  index.ResourceSnapshot
		Refs map[string]string
	}{sem, res, refs})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestIndexBatchDeterministicAcrossWorkers(t *testing.T) {
	var entries []index.Entry
	for i := 0; i < 8; i++ {
		e := testModel(t, fmt.Sprintf("det-%d", i), uint64(10+i))
		entries = append(entries, *e)
	}

	build := func(workers int) *Catalog {
		c := New(Config{Seed: 7, Workers: workers, ValidationSize: 40})
		if _, err := c.IndexBatch(context.Background(), entries); err != nil {
			t.Fatal(err)
		}
		return c
	}
	serial := exportJSON(t, build(1))
	parallel := exportJSON(t, build(4))
	if string(serial) != string(parallel) {
		t.Fatal("IndexBatch results differ between 1 and 4 workers")
	}

	// Serial Index calls must also match the batch path exactly.
	c := New(Config{Seed: 7, Workers: 1, ValidationSize: 40})
	for _, e := range entries {
		if err := c.Index(context.Background(), e.ID, e.Model); err != nil {
			t.Fatal(err)
		}
	}
	if oneByOne := exportJSON(t, c); string(oneByOne) != string(serial) {
		t.Fatal("serial Index calls differ from IndexBatch")
	}
}

func TestProbeCacheCustomDataset(t *testing.T) {
	custom := &dataset.Dataset{
		Name:   "custom",
		Inputs: dataset.RandomImages(20, tensor.Shape{16}, 99),
	}
	a := newPairAnalyzer(Config{Seed: 1, ValidationSize: 30, CustomValidation: custom})

	match, err := zoo.DenseResidualNet(zoo.Config{Name: "cv", Seed: 4, InDim: 16})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.probes.For(match); got != custom {
		t.Fatal("custom validation dataset not used for matching shape")
	}
	other, err := zoo.ConvNet(zoo.Config{Name: "conv", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	gen := a.probes.For(other)
	if gen == custom {
		t.Fatal("custom dataset applied to mismatched shape")
	}
	if again := a.probes.For(other); again != gen {
		t.Fatal("generated probe dataset not cached")
	}
	// Evidence is keyed by the same names: distinct sets, distinct keys.
	if km, ko := a.probes.key(match), a.probes.key(other); km != "custom" || ko == km {
		t.Fatalf("probe set keys %q and %q", km, ko)
	}
}

// TestResourceSnapshotRoundTrip: the exported profile table restores
// into another catalog, replacing (not merging with) what it held, and
// a profile without an ID is rejected before anything is replaced.
func TestResourceSnapshotRoundTrip(t *testing.T) {
	profiles := make(map[string]resource.Profile)
	var sem index.SemanticSnapshot
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("m%d", i)
		profiles[id] = resource.Profile{FLOPs: int64(i + 1), MemoryBytes: int64(100 * (i + 1)), LatencyMS: float64(i)}
		sem.Entries = append(sem.Entries, index.SemanticEntrySnapshot{ID: id, Fingerprint: id})
	}
	src := New(Config{Seed: 2})
	if err := src.Restore(sem, index.ResourceSnapshot{Profiles: profiles}, nil, nil); err != nil {
		t.Fatal(err)
	}
	_, exported, _ := src.Export()

	dst := New(Config{Seed: 7, Analyzer: silentAnalyzer{}})
	stale := testModel(t, "stale", 1)
	if err := dst.Index(context.Background(), stale.ID, stale.Model); err != nil {
		t.Fatal(err)
	}
	bad := index.ResourceSnapshot{Profiles: map[string]resource.Profile{"": {FLOPs: 1}}}
	if err := dst.Restore(sem, bad, nil, nil); err == nil {
		t.Fatal("expected an error for a profile without an ID")
	}
	if _, ok := dst.Snapshot().Profile(stale.ID); !ok {
		t.Fatal("rejected restore must leave the catalog untouched")
	}
	if err := dst.Restore(sem, exported, nil, nil); err != nil {
		t.Fatal(err)
	}
	snap := dst.Snapshot()
	if _, ok := snap.Profile(stale.ID); ok {
		t.Fatal("restore kept stale entry")
	}
	for id, want := range profiles {
		if got, ok := snap.Profile(id); !ok || got != want {
			t.Fatalf("profile %s = %+v (ok=%v), want %+v", id, got, ok, want)
		}
	}
	// The export is a copy: mutating it must not reach the catalog.
	delete(exported.Profiles, "m0")
	if _, ok := dst.Snapshot().Profile("m0"); !ok {
		t.Fatal("restored catalog aliases the snapshot's map")
	}
}
