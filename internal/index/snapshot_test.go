package index

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"sommelier/internal/graph"
)

func TestSemanticSnapshotRoundTrip(t *testing.T) {
	idx := NewSemanticIndex(1)
	tags := map[string]float64{"a": 0, "b": 0.1, "c": 0.3}
	an := &stubAnalyzer{tag: tags}
	models := map[string]*graph.Model{}
	for i, id := range []string{"a", "b", "c"} {
		m := tinyModel(t, uint64(i+1))
		models[id] = m
		if err := idx.Insert(Entry{ID: id, Model: m}, an); err != nil {
			t.Fatal(err)
		}
	}
	snap := idx.Snapshot()
	if len(snap.Entries) != 3 {
		t.Fatalf("snapshot = %+v", snap)
	}

	restored := NewSemanticIndex(9)
	resolve := func(id string) (*graph.Model, error) {
		m, ok := models[id]
		if !ok {
			return nil, fmt.Errorf("missing %q", id)
		}
		return m, nil
	}
	if err := restored.Restore(snap, resolve); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b", "c"} {
		orig, err := idx.Lookup(id, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored.Lookup(id, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(orig) != len(got) {
			t.Fatalf("%s: candidate counts %d vs %d", id, len(orig), len(got))
		}
		for i := range orig {
			if orig[i] != got[i] {
				t.Fatalf("%s: candidate %d differs", id, i)
			}
		}
	}
	// Insertion order survives.
	if got := restored.IDs(); !slices.Equal(got, idx.IDs()) {
		t.Fatalf("restored order %v, want %v", got, idx.IDs())
	}
	// Post-restore insertion can measure against restored entries.
	if err := restored.Insert(Entry{ID: "d", Model: tinyModel(t, 44)}, an); err != nil {
		t.Fatal(err)
	}
}

func TestSemanticRestoreRejectsBadSnapshots(t *testing.T) {
	idx := NewSemanticIndex(1)
	if err := idx.Restore(SemanticSnapshot{Entries: []SemanticEntrySnapshot{{ID: ""}}}, nil); err == nil {
		t.Fatal("expected empty-ID error")
	}
	if err := idx.Restore(SemanticSnapshot{Entries: []SemanticEntrySnapshot{
		{ID: "x"}, {ID: "x"},
	}}, nil); err == nil {
		t.Fatal("expected duplicate error")
	}
	failing := func(string) (*graph.Model, error) { return nil, fmt.Errorf("boom") }
	if err := idx.Restore(SemanticSnapshot{Entries: []SemanticEntrySnapshot{
		{ID: "x"},
	}}, failing); err == nil {
		t.Fatal("expected resolve error")
	}
}

// TestSemanticRestoreNormalizesLists: Lookup's binary search trusts a
// list's order, so Restore puts every list in it — descending, one
// record per (ID, Kind, Segment), the better one kept — whatever order
// the snapshot holds, and refuses a level outside [0, 1] and an unknown
// kind. The sample size is the index's configuration, which a restore
// leaves alone.
func TestSemanticRestoreNormalizesLists(t *testing.T) {
	idx := NewSemanticIndex(1)
	idx.SampleSize = 2
	if err := idx.Restore(SemanticSnapshot{Entries: []SemanticEntrySnapshot{
		{ID: "r", Candidates: []Candidate{
			{ID: "a", Level: 0.2}, {ID: "b", Level: 0.5}, {ID: "a", Level: 0.9},
			{ID: "c", Level: 0.7}, {ID: "b", Level: 0.5, Kind: KindSynthesized, Segment: "s"},
		}},
	}}, nil); err != nil {
		t.Fatal(err)
	}
	got, err := idx.Lookup("r", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := []Candidate{{ID: "a", Level: 0.9}, {ID: "c", Level: 0.7}, {ID: "b", Level: 0.5}, {ID: "b", Level: 0.5, Kind: KindSynthesized, Segment: "s"}}
	if !slices.Equal(got, want) {
		t.Fatalf("Lookup(r, 0.5) = %+v, want %+v", got, want)
	}
	if idx.SampleSize != 2 {
		t.Fatalf("SampleSize = %d after a restore, want the configured 2", idx.SampleSize)
	}
	for _, c := range []Candidate{{Level: 2}, {Level: -1}, {Level: math.NaN()}, {Level: 0.5, Kind: 2}} {
		c.ID = "y"
		if err := idx.Restore(SemanticSnapshot{Entries: []SemanticEntrySnapshot{
			{ID: "x", Candidates: []Candidate{c}},
		}}, nil); err == nil {
			t.Fatalf("record %+v accepted", c)
		}
	}
	if !idx.Contains("r") || idx.Contains("x") {
		t.Fatal("a refused snapshot replaced the index")
	}
}
