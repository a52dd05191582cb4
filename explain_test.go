package sommelier

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"sommelier/internal/repo"
)

func TestExplainStages(t *testing.T) {
	eng, refID, _ := newEngineWithLadder(t, false)
	exp, err := eng.ExplainContext(context.Background(), `SELECT CORR "`+refID+`" WITHIN 85% ON memory <= 120% PICK most_similar`)
	if err != nil {
		t.Fatal(err)
	}
	if exp.Reference != refID {
		t.Fatalf("reference = %q", exp.Reference)
	}
	// 4 indexed candidates total: some pass the 85% threshold, the
	// distant variant does not.
	if exp.SemanticCandidates+exp.SemanticRejected != 4 {
		t.Fatalf("semantic accounting wrong: %d + %d", exp.SemanticCandidates, exp.SemanticRejected)
	}
	if exp.SemanticRejected == 0 {
		t.Fatal("the distant variant should fail the threshold")
	}
	// The inflated big model should be rejected by the memory budget —
	// if it survived the semantic stage.
	total := 0
	for _, n := range exp.ResourceRejected {
		total += n
	}
	if exp.Returned != len(exp.Results) {
		t.Fatalf("returned count mismatch: %d vs %d", exp.Returned, len(exp.Results))
	}
	// Results must agree with the plain Query path exactly.
	direct, err := eng.QueryContext(context.Background(), `SELECT CORR "`+refID+`" WITHIN 85% ON memory <= 120% PICK most_similar`)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct) != len(exp.Results) {
		t.Fatalf("Explain results diverge from Query: %d vs %d", len(exp.Results), len(direct))
	}
	for i := range direct {
		if direct[i].ID != exp.Results[i].ID {
			t.Fatalf("result %d: %q vs %q", i, direct[i].ID, exp.Results[i].ID)
		}
	}
	s := exp.String()
	for _, want := range []string{"stage 1", "stage 2", "stage 3", refID} {
		if !strings.Contains(s, want) {
			t.Fatalf("explanation missing %q:\n%s", want, s)
		}
	}
}

func TestExplainResourceRejections(t *testing.T) {
	eng, refID, _ := newEngineWithLadder(t, false)
	// A tiny memory budget rejects everything.
	exp, err := eng.ExplainContext(context.Background(), `SELECT CORR "`+refID+`" WITHIN 10% ON memory <= 1% PICK most_similar`)
	if err != nil {
		t.Fatal(err)
	}
	if exp.Returned != 0 {
		t.Fatalf("returned %d under impossible budget", exp.Returned)
	}
	rejected := 0
	for _, n := range exp.ResourceRejected {
		rejected += n
	}
	if rejected != exp.SemanticCandidates {
		t.Fatalf("every semantic survivor should be resource-rejected: %d vs %d",
			rejected, exp.SemanticCandidates)
	}
	if !strings.Contains(exp.String(), "rejected") {
		t.Fatal("explanation should list rejections")
	}
}

func TestExplainErrors(t *testing.T) {
	eng, _, _ := newEngineWithLadder(t, false)
	if _, err := eng.ExplainContext(context.Background(), `garbage`); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := eng.ExplainContext(context.Background(), `SELECT CORR ghost@1`); err == nil {
		t.Fatal("expected unknown-reference error")
	}
	if _, err := eng.ExplainContext(context.Background(), `SELECT TASK nosuch`); err == nil {
		t.Fatal("expected no-default error")
	}
}

// TestExplainHonoursCancellation: Explain runs the query executor, so a
// cancelled ctx stops it at the first candidate like any other query.
func TestExplainHonoursCancellation(t *testing.T) {
	eng, refID, _ := newEngineWithLadder(t, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := eng.ExplainContext(ctx, `SELECT CORR "`+refID+`" WITHIN 10% PICK most_similar`)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ExplainContext on a cancelled ctx = %v, want context.Canceled", err)
	}
}

// TestExplainExecLoadsNoModel: an EXEC explain derives its profiles
// from the snapshot's footprints as a query does — loading no model —
// and so returns the query's results.
func TestExplainExecLoadsNoModel(t *testing.T) {
	store := &countingStore{Repository: repo.NewInMemory()}
	eng, refID := newLadderOverStore(t, store)
	ctx := context.Background()
	q := fmt.Sprintf(`SELECT CORR %q WITHIN 50%% ON flops <= 300%% EXEC batch=4 PICK fastest`, refID)

	store.loads.Store(0)
	direct, err := eng.QueryContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct) == 0 {
		t.Fatal("EXEC query returned nothing; the test is vacuous")
	}
	exp, err := eng.ExplainContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if got := store.loads.Load(); got != 0 {
		t.Fatalf("an EXEC query and its explain loaded %d models, want 0", got)
	}
	if got, want := mustMarshal(t, exp.Results), mustMarshal(t, direct); string(got) != string(want) {
		t.Fatalf("EXEC explain results diverge from the query:\n got %s\nwant %s", got, want)
	}
}
