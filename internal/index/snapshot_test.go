package index

import (
	"fmt"
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
	if len(snap.Entries) != 3 || snap.SampleSize != 5 {
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
	// Fingerprint mapping survives.
	if id, ok := restored.LookupByFingerprint(models["a"].Fingerprint()); !ok || id != "a" {
		t.Fatal("fingerprint mapping lost")
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
		{ID: "x", Fingerprint: "f1"}, {ID: "x", Fingerprint: "f2"},
	}}, nil); err == nil {
		t.Fatal("expected duplicate error")
	}
	failing := func(string) (*graph.Model, error) { return nil, fmt.Errorf("boom") }
	if err := idx.Restore(SemanticSnapshot{Entries: []SemanticEntrySnapshot{
		{ID: "x", Fingerprint: "f"},
	}}, failing); err == nil {
		t.Fatal("expected resolve error")
	}
}
