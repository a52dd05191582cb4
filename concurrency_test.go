package sommelier

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"sommelier/internal/index"
	"sommelier/internal/repo"
	"sommelier/internal/zoo"
)

// TestEngineConcurrentQueriesDuringRegistration drives queries from many
// goroutines while new models are being registered — the serving-system
// usage pattern (§7.1's automatic model switching queries on the hot
// path while the repository grows). Run with -race in CI.
func TestEngineConcurrentQueriesDuringRegistration(t *testing.T) {
	store := repo.NewInMemory()
	eng, err := NewEngine(store, WithSeed(21), WithValidationSize(120))
	if err != nil {
		t.Fatal(err)
	}
	base, err := zoo.DenseResidualNet(zoo.Config{Name: "conc", Seed: 1, Width: 24})
	if err != nil {
		t.Fatal(err)
	}
	refID, err := eng.RegisterContext(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)

	// Writer: register variants.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			v := zoo.Perturb(base, fmt.Sprintf("conc-v%d", i), 0.05, uint64(i+2))
			if _, err := eng.RegisterContext(context.Background(), v); err != nil {
				errs <- err
				return
			}
		}
	}()

	// Readers: query, explain, top-K concurrently.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := eng.QueryContext(context.Background(), `SELECT CORR "`+refID+`" WITHIN 10% PICK most_similar`); err != nil {
					errs <- err
					return
				}
				if _, err := eng.TopEquivalents(refID, 3); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if eng.IndexedLen() != 7 {
		t.Fatalf("IndexedLen = %d", eng.IndexedLen())
	}
}

// TestEngineSnapshotConsistencyUnderStress hammers every engine surface
// at once — Register, IndexAll, Query, Explain, TopEquivalents — and
// checks that readers only ever observe consistent snapshots: every
// result carries a real profile, a sane level, and a loadable model,
// and Explain's per-stage counts add up. Registration racing IndexAll
// over the same models must deduplicate inside the commit stage, so
// the only tolerated write error is "already indexed". Run with -race
// in CI (make check).
func TestEngineSnapshotConsistencyUnderStress(t *testing.T) {
	store := repo.NewInMemory()
	eng, err := NewEngine(store, WithSeed(33), WithValidationSize(60), WithIndexWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	base, err := zoo.DenseResidualNet(zoo.Config{Name: "stress", Seed: 1, Width: 16})
	if err != nil {
		t.Fatal(err)
	}
	refID, err := eng.RegisterContext(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}

	const registered, published = 5, 5
	var wg sync.WaitGroup
	errs := make(chan error, 128)
	tolerated := func(err error) bool { return errors.Is(err, index.ErrAlreadyIndexed) }

	// Writer 1: register variants one at a time.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < registered; i++ {
			v := zoo.Perturb(base, fmt.Sprintf("stress-r%d", i), 0.05, uint64(i+2))
			if _, err := eng.RegisterContext(context.Background(), v); err != nil && !tolerated(err) {
				errs <- err
				return
			}
		}
	}()

	// Writer 2: publish straight to the repository, then batch-index —
	// racing writer 1's commits and exercising the in-commit dedup.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < published; i++ {
			v := zoo.Perturb(base, fmt.Sprintf("stress-p%d", i), 0.07, uint64(i+20))
			if _, err := store.Publish(v); err != nil {
				errs <- err
				return
			}
			if err := eng.IndexAllContext(context.Background()); err != nil && !tolerated(err) {
				errs <- err
				return
			}
		}
	}()

	// Readers: every result must come from one consistent snapshot.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				results, err := eng.QueryContext(context.Background(), `SELECT CORR "`+refID+`" WITHIN 10% PICK most_similar`)
				if err != nil {
					errs <- err
					return
				}
				for _, r := range results {
					if r.Profile.IsZero() {
						errs <- fmt.Errorf("result %q has zero profile: torn snapshot", r.ID)
						return
					}
					if r.Level < 0 || r.Level > 1 {
						errs <- fmt.Errorf("result %q level %v outside [0,1]", r.ID, r.Level)
						return
					}
					if _, err := store.Load(r.ID); err != nil {
						errs <- fmt.Errorf("result %q not loadable: %v", r.ID, err)
						return
					}
				}
				exp, err := eng.ExplainContext(context.Background(), `SELECT CORR "`+refID+`" WITHIN 10% PICK most_similar`)
				if err != nil {
					errs <- err
					return
				}
				if exp.Returned != len(exp.Results) || exp.Returned > exp.SemanticCandidates {
					errs <- fmt.Errorf("explain counts inconsistent: returned %d, results %d, semantic %d",
						exp.Returned, len(exp.Results), exp.SemanticCandidates)
					return
				}
				if _, err := eng.TopEquivalents(refID, 3); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every published model must be indexed exactly once.
	if err := eng.IndexAllContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := 1 + registered + published
	if eng.IndexedLen() != want {
		t.Fatalf("IndexedLen = %d, want %d", eng.IndexedLen(), want)
	}
	for _, md := range store.List() {
		if _, ok := eng.Profile(md.ID); !ok {
			t.Fatalf("published model %q has no indexed profile", md.ID)
		}
	}
}
