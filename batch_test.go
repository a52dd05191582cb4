package sommelier

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"sommelier/internal/dataset"
	"sommelier/internal/graph"
	"sommelier/internal/repo"
	"sommelier/internal/resource"
	"sommelier/internal/zoo"
)

// countingStore wraps a repository and counts Load calls — the expensive
// stage-2 operation the batch memo exists to deduplicate.
type countingStore struct {
	*repo.Repository
	loads atomic.Int64
}

func (c *countingStore) Load(id string) (*graph.Model, error) {
	c.loads.Add(1)
	return c.Repository.Load(id)
}

// newLadderOverStore mirrors newEngineWithLadder but over a caller-held
// store, so tests can build fresh engines over the same models.
func newLadderOverStore(t testing.TB, store Store) (*Engine, string) {
	t.Helper()
	eng, err := NewEngine(store, WithSeed(11), WithValidationSize(250))
	if err != nil {
		t.Fatal(err)
	}
	base, err := zoo.DenseResidualNet(zoo.Config{Name: "refnet", Seed: 1, Width: 32, Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	refID, err := eng.RegisterContext(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	probes := dataset.RandomImages(300, base.InputShape, 42)
	for i, target := range []float64{0.03, 0.08, 0.2} {
		v, _, err := zoo.CalibratedVariant(base, "variant"+itoa(i), target, probes, uint64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.RegisterContext(context.Background(), v); err != nil {
			t.Fatal(err)
		}
	}
	big, err := zoo.Inflate(base, "bignet", 32, 96, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RegisterContext(context.Background(), big); err != nil {
		t.Fatal(err)
	}
	return eng, refID
}

func batchTestWorkload(refID string) []string {
	return []string{
		fmt.Sprintf(`SELECT CORR %q WITHIN 85%% PICK most_similar`, refID),
		fmt.Sprintf(`SELECT CORR %q WITHIN 85%% ON memory <= 120%% PICK smallest`, refID),
		fmt.Sprintf(`SELECT CORR %q WITHIN 50%% PICK smallest`, refID),
		fmt.Sprintf(`SELECT CORR %q WITHIN 50%% ON flops <= 300%% EXEC batch=4 PICK fastest`, refID),
		fmt.Sprintf(`SELECT CORR %q WITHIN 85%% PICK most_similar`, refID), // duplicate of [0]
		`SELECT CORR "ghost@1" WITHIN 50%`,                                 // unknown reference
		`SELECT CORR`,                                                      // parse error
	}
}

// TestQueryBatchMatchesSerial pins the batch API's core contract: for a
// quiescent catalog, QueryBatchContext returns byte-identical results to
// a serial QueryContext loop over the same workload, at every worker
// count, with per-slot errors matching the serial errors.
func TestQueryBatchMatchesSerial(t *testing.T) {
	store := repo.NewInMemory()
	eng, refID := newLadderOverStore(t, store)
	ctx := context.Background()
	workload := batchTestWorkload(refID)

	serialResults := make([][]Result, len(workload))
	serialErrs := make([]error, len(workload))
	for i, q := range workload {
		serialResults[i], serialErrs[i] = eng.QueryContext(ctx, q)
	}
	if serialErrs[5] == nil || serialErrs[6] == nil {
		t.Fatalf("expected serial errors in slots 5 and 6, got %v / %v", serialErrs[5], serialErrs[6])
	}
	want := mustMarshal(t, serialResults)

	// The index state is reused via the persistence path so each
	// worker-count engine skips the pairwise analysis.
	var snap bytes.Buffer
	if err := eng.SaveIndexes(&snap); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		eng2, err := NewEngine(store, WithSeed(11), WithValidationSize(250), WithQueryWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if err := eng2.LoadIndexes(bytes.NewReader(snap.Bytes())); err != nil {
			t.Fatal(err)
		}
		results, errs := eng2.QueryBatchContext(ctx, workload)
		if len(results) != len(workload) || len(errs) != len(workload) {
			t.Fatalf("workers=%d: misaligned batch output: %d/%d", workers, len(results), len(errs))
		}
		for i := range workload {
			if (errs[i] == nil) != (serialErrs[i] == nil) {
				t.Fatalf("workers=%d slot %d: batch err %v, serial err %v", workers, i, errs[i], serialErrs[i])
			}
			if errs[i] != nil && errs[i].Error() != serialErrs[i].Error() {
				t.Fatalf("workers=%d slot %d: batch err %q, serial err %q",
					workers, i, errs[i], serialErrs[i])
			}
		}
		if got := mustMarshal(t, results); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: batch results diverge from serial:\n got %s\nwant %s", workers, got, want)
		}
	}
}

// TestQueryBatchSharesReprofileMemo pins the amortization claim: a batch
// of EXEC queries loads and re-measures each candidate model once, where
// the serial loop pays the full cost per query.
func TestQueryBatchSharesReprofileMemo(t *testing.T) {
	store := &countingStore{Repository: repo.NewInMemory()}
	eng, refID := newLadderOverStore(t, store)
	ctx := context.Background()
	q := fmt.Sprintf(`SELECT CORR %q WITHIN 50%% ON flops <= 300%% EXEC batch=4 PICK fastest`, refID)

	store.loads.Store(0)
	if _, err := eng.QueryContext(ctx, q); err != nil {
		t.Fatal(err)
	}
	perQuery := store.loads.Load()
	if perQuery == 0 {
		t.Fatal("EXEC query did not load any model; the memo test is vacuous")
	}

	const n = 8
	workload := make([]string, n)
	for i := range workload {
		workload[i] = q
	}
	store.loads.Store(0)
	_, errs := eng.QueryBatchContext(ctx, workload)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("batch slot %d: %v", i, err)
		}
	}
	if got := store.loads.Load(); got != perQuery {
		t.Fatalf("batch of %d identical EXEC queries loaded %d models, want %d (one memoized pass)",
			n, got, perQuery)
	}
}

// TestQueryContextCancellation pins that a cancelled context aborts the
// per-candidate stage-2 loop instead of grinding through it, in both the
// single-query and batch paths.
func TestQueryContextCancellation(t *testing.T) {
	store := repo.NewInMemory()
	eng, refID := newLadderOverStore(t, store)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	q := fmt.Sprintf(`SELECT CORR %q WITHIN 50%% PICK most_similar`, refID)
	if _, err := eng.QueryContext(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("QueryContext with cancelled ctx: err = %v, want context.Canceled", err)
	}
	results, errs := eng.QueryBatchContext(ctx, []string{q, q})
	for i := range errs {
		if !errors.Is(errs[i], context.Canceled) {
			t.Fatalf("batch slot %d: err = %v, want context.Canceled", i, errs[i])
		}
		if results[i] != nil {
			t.Fatalf("batch slot %d: results returned despite cancellation", i)
		}
	}
}

// TestQueryCandidateMissingProfileSkipped pins the profileOf bugfix: an
// indexed candidate whose resource profile is missing is skipped, not
// ranked with a zero-valued profile it would trivially win PICK smallest
// with; a missing *reference* profile fails the query with ErrNoProfile.
func TestQueryCandidateMissingProfileSkipped(t *testing.T) {
	store := repo.NewInMemory()
	eng, refID := newLadderOverStore(t, store)
	victim := "variant0@1"

	results, err := eng.QueryContext(context.Background(), fmt.Sprintf(`SELECT CORR %q WITHIN 50%% PICK smallest`, refID))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range results {
		if r.ID == victim {
			found = true
		}
	}
	if !found {
		t.Fatalf("setup: %s not in baseline results %v", victim, results)
	}

	dropProfile(t, eng, store, victim)
	results, err = eng.QueryContext(context.Background(), fmt.Sprintf(`SELECT CORR %q WITHIN 50%% PICK smallest`, refID))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no results at all after dropping one profile")
	}
	for _, r := range results {
		if r.ID == victim {
			t.Fatalf("profile-less candidate %s competed in ranking: %+v", victim, r)
		}
		if r.Profile.MemoryBytes == 0 {
			t.Fatalf("zero-valued profile leaked into results: %+v", r)
		}
	}
	top, err := eng.TopEquivalents(refID, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range top {
		if r.ID == victim {
			t.Fatalf("TopEquivalents returned profile-less candidate %s", victim)
		}
	}

	// A reference without a profile is an index inconsistency the query
	// must report, not paper over.
	dropProfile(t, eng, store, refID)
	if _, err := eng.QueryContext(context.Background(), fmt.Sprintf(`SELECT CORR %q WITHIN 50%%`, refID)); !errors.Is(err, ErrNoProfile) {
		t.Fatalf("query with profile-less reference: err = %v, want ErrNoProfile", err)
	}
}

// dropProfile removes one model's resource profile through the
// persistence round trip — the only way index state legitimately
// re-enters an engine.
func dropProfile(t *testing.T, eng *Engine, store Store, id string) {
	t.Helper()
	var buf bytes.Buffer
	if err := eng.SaveIndexes(&buf); err != nil {
		t.Fatal(err)
	}
	var snap map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	var res struct {
		Profiles map[string]resource.Profile `json:"profiles"`
	}
	if err := json.Unmarshal(snap["resource"], &res); err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Profiles[id]; !ok {
		t.Fatalf("no profile for %s in snapshot", id)
	}
	delete(res.Profiles, id)
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	snap["resource"] = raw
	out, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadIndexes(bytes.NewReader(out)); err != nil {
		t.Fatal(err)
	}
}

// TestQueryDuplicateConstraintsTakeTightest pins duplicate-bound
// semantics: constraints AND together, so a metric bounded twice
// answers exactly like the single tight bound regardless of write
// order, and a lower plus an upper bound on one metric is a range.
func TestQueryDuplicateConstraintsTakeTightest(t *testing.T) {
	store := repo.NewInMemory()
	eng, refID := newLadderOverStore(t, store)
	single, err := eng.QueryContext(context.Background(), fmt.Sprintf(`SELECT CORR %q WITHIN 50%% ON memory <= 120%% PICK smallest`, refID))
	if err != nil {
		t.Fatal(err)
	}
	want := mustMarshal(t, single)
	for _, q := range []string{
		fmt.Sprintf(`SELECT CORR %q WITHIN 50%% ON memory <= 120%% AND memory <= 500%% PICK smallest`, refID),
		fmt.Sprintf(`SELECT CORR %q WITHIN 50%% ON memory <= 500%% AND memory <= 120%% PICK smallest`, refID),
	} {
		dup, err := eng.QueryContext(context.Background(), q)
		if err != nil {
			t.Fatalf("duplicate-bound query rejected: %v", err)
		}
		if got := mustMarshal(t, dup); !bytes.Equal(got, want) {
			t.Fatalf("duplicate bounds changed the answer:\n got %s\nwant %s", got, want)
		}
	}

	// Ranges — a lower and an upper bound on one metric — are the useful
	// case duplicate rejection used to outlaw.
	rng, err := eng.QueryContext(context.Background(), fmt.Sprintf(`SELECT CORR %q WITHIN 50%% ON memory >= 10%% AND memory <= 120%% PICK smallest`, refID))
	if err != nil {
		t.Fatalf("range query rejected: %v", err)
	}
	if len(rng) == 0 {
		t.Fatal("range query returned nothing")
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
