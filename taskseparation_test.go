package sommelier

import (
	"context"
	"fmt"
	"testing"

	"sommelier/internal/repo"
	"sommelier/internal/zoo"
)

// TestMixedRepositoryTaskSeparation indexes CV and NLP models in one
// repository — the paper's single-index-for-the-whole-repository design
// (§5.2) — and verifies the IO/type check (§4.1) keeps them apart: a
// query against a vision reference never returns a text model and vice
// versa, even at threshold zero.
func TestMixedRepositoryTaskSeparation(t *testing.T) {
	store := repo.NewInMemory()
	eng, err := NewEngine(store, WithSeed(31), WithValidationSize(200), WithSampleSize(50))
	if err != nil {
		t.Fatal(err)
	}

	// CV side: a dense-residual base plus two variants.
	cv, err := zoo.DenseResidualNet(zoo.Config{Name: "cv-base", Seed: 1, Width: 24})
	if err != nil {
		t.Fatal(err)
	}
	cvID, err := eng.RegisterContext(context.Background(), cv)
	if err != nil {
		t.Fatal(err)
	}
	cvIDs := map[string]bool{cvID: true}
	for i := 0; i < 2; i++ {
		v := zoo.Perturb(cv, fmt.Sprintf("cv-v%d", i), 0.05, uint64(i+2))
		id, err := eng.RegisterContext(context.Background(), v)
		if err != nil {
			t.Fatal(err)
		}
		cvIDs[id] = true
	}

	// NLP side: a text cohort.
	cohort, err := zoo.TextCohort(zoo.TextConfig{Seed: 9}, 2, 0.08, 11)
	if err != nil {
		t.Fatal(err)
	}
	nlpID, err := eng.RegisterContext(context.Background(), cohort.Teacher)
	if err != nil {
		t.Fatal(err)
	}
	nlpIDs := map[string]bool{nlpID: true}
	for _, m := range cohort.Models {
		id, err := eng.RegisterContext(context.Background(), m)
		if err != nil {
			t.Fatal(err)
		}
		nlpIDs[id] = true
	}

	// Vision queries stay in vision...
	res, err := eng.QueryContext(context.Background(), fmt.Sprintf("SELECT CORR %q WITHIN 0%% PICK most_similar", cvID))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("vision query found nothing")
	}
	for _, r := range res {
		if nlpIDs[r.ID] {
			t.Fatalf("vision query returned text model %s", r.ID)
		}
	}
	// ...and text queries stay in text.
	res, err = eng.QueryContext(context.Background(), fmt.Sprintf("SELECT CORR %q WITHIN 0%% PICK most_similar", nlpID))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("text query found nothing")
	}
	for _, r := range res {
		if cvIDs[r.ID] {
			t.Fatalf("text query returned vision model %s", r.ID)
		}
	}
	// The text cohort's internal correlation is visible.
	if res[0].Level < 0.7 {
		t.Fatalf("text cohort correlation too weak: %+v", res[0])
	}
}
