package sommelier

import (
	"bytes"
	"context"
	"runtime"
	"testing"
	"time"

	"sommelier/internal/repo"
	"sommelier/internal/zoo"
)

// benchCatalog publishes a 24-model zoo catalog (6 series × 4 models
// over 3 shared trunks) into a fresh repository.
func benchCatalog(t testing.TB, seed uint64) *repo.Repository {
	t.Helper()
	series, err := zoo.Catalog(zoo.CatalogConfig{
		NumSeries: 6, MinPerSeries: 4, MaxPerSeries: 4, NumTrunks: 3, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	store := repo.NewInMemory()
	for _, s := range series {
		for _, m := range s.Models {
			if _, err := store.Publish(m); err != nil {
				t.Fatal(err)
			}
		}
	}
	return store
}

// indexAllWith runs IndexAll over a fresh copy of the catalog with the
// given worker count, returning the serialized index state and the
// wall-clock indexing time.
func indexAllWith(t testing.TB, workers int) ([]byte, time.Duration) {
	t.Helper()
	store := benchCatalog(t, 0xbe7c)
	eng, err := NewEngine(store,
		WithSeed(17), WithValidationSize(80), WithIndexWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := eng.IndexAllContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if eng.IndexedLen() != 24 {
		t.Fatalf("indexed %d models, want 24", eng.IndexedLen())
	}
	var buf bytes.Buffer
	if err := eng.SaveIndexes(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), elapsed
}

// TestIndexAllParallelByteIdentical is the determinism contract of the
// staged pipeline: for a fixed seed, parallel IndexAll commits an index
// byte-identical to the serial path, at any worker count.
func TestIndexAllParallelByteIdentical(t *testing.T) {
	serial, _ := indexAllWith(t, 1)
	for _, workers := range []int{2, 4, 8} {
		parallel, _ := indexAllWith(t, workers)
		if !bytes.Equal(serial, parallel) {
			t.Fatalf("index state with %d workers differs from serial", workers)
		}
	}
}

// TestIndexAllParallelSpeedup checks the performance half of the
// pipeline's contract: with real parallel hardware, fanning the
// pairwise analysis out must beat the serial path by 2x or better.
// Wall-clock assertions are meaningless on starved or instrumented
// builds, so the test only runs on 4+ CPUs without -short or -race.
func TestIndexAllParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup measurement skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("speedup measurement meaningless under the race detector")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need 4+ CPUs for a meaningful speedup measurement, have %d", runtime.NumCPU())
	}
	_, serialDur := indexAllWith(t, 1)
	_, parDur := indexAllWith(t, runtime.NumCPU())
	speedup := serialDur.Seconds() / parDur.Seconds()
	t.Logf("serial %v, parallel %v, speedup %.2fx", serialDur, parDur, speedup)
	if speedup < 2 {
		t.Fatalf("parallel IndexAll speedup %.2fx, want >= 2x on %d CPUs", speedup, runtime.NumCPU())
	}
}
