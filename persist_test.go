package sommelier

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"sommelier/internal/repo"
)

func TestSaveLoadIndexesRoundTrip(t *testing.T) {
	eng, refID, _ := newEngineWithLadder(t, false)
	var buf bytes.Buffer
	if err := eng.SaveIndexes(&buf); err != nil {
		t.Fatal(err)
	}

	// A fresh engine over the same repository, restored without any
	// re-analysis.
	eng2, err := NewEngine(eng.Store(), WithSeed(99))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.LoadIndexes(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if eng2.IndexedLen() != eng.IndexedLen() {
		t.Fatalf("restored %d entries, want %d", eng2.IndexedLen(), eng.IndexedLen())
	}

	// Queries over the restored engine match the original exactly.
	q := `SELECT CORR "` + refID + `" WITHIN 50% PICK most_similar`
	orig, err := eng.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := eng2.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(orig) != len(restored) {
		t.Fatalf("result sizes differ: %d vs %d", len(orig), len(restored))
	}
	for i := range orig {
		if orig[i].ID != restored[i].ID || orig[i].Level != restored[i].Level {
			t.Fatalf("result %d differs: %+v vs %+v", i, orig[i], restored[i])
		}
	}
	// Task-default references survive.
	if _, err := eng2.QueryContext(context.Background(), `SELECT TASK classification WITHIN 50% PICK most_similar`); err != nil {
		t.Fatal(err)
	}
}

func TestLoadIndexesAfterRestoreCanRegisterMore(t *testing.T) {
	eng, refID, _ := newEngineWithLadder(t, false)
	var buf bytes.Buffer
	if err := eng.SaveIndexes(&buf); err != nil {
		t.Fatal(err)
	}
	eng2, err := NewEngine(eng.Store(), WithSeed(11), WithValidationSize(250))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.LoadIndexes(&buf); err != nil {
		t.Fatal(err)
	}
	// Register a new model: the analyzer must be able to compare it
	// against restored (re-resolved) entries.
	m, err := eng2.Store().Load(refID)
	if err != nil {
		t.Fatal(err)
	}
	clone := m.Clone()
	clone.Name = "post-restore"
	id, err := eng2.RegisterContext(context.Background(), clone)
	if err != nil {
		t.Fatal(err)
	}
	top, err := eng2.TopEquivalents(id, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) == 0 || top[0].Level < 0.8 {
		t.Fatalf("post-restore registration did not analyze against restored entries: %+v", top)
	}
}

func TestLoadIndexesErrors(t *testing.T) {
	eng, err := NewEngine(repo.NewInMemory())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadIndexes(strings.NewReader(`{"version":99}`)); err == nil {
		t.Fatal("expected version error")
	}
	if err := eng.LoadIndexes(strings.NewReader(`not json`)); err == nil {
		t.Fatal("expected decode error")
	}
	// Snapshot referencing a model absent from the repository.
	if err := eng.LoadIndexes(strings.NewReader(
		`{"version":1,"semantic":{"entries":[{"id":"ghost@1","fingerprint":"x"}]},"resource":{"profiles":{}}}`,
	)); err == nil {
		t.Fatal("expected missing-model error")
	}
}
