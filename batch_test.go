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

// countingStore wraps a repository, counts Load calls and, once fail is
// set, fails them: a query path that reads a model shows on both.
type countingStore struct {
	*repo.Repository
	loads atomic.Int64
	fail  atomic.Bool
}

var errStoreDown = errors.New("store down")

func (c *countingStore) Load(id string) (*graph.Model, error) {
	c.loads.Add(1)
	if c.fail.Load() {
		return nil, errStoreDown
	}
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

// TestQueryBatchExecLoadsNoModel: a batch of EXEC queries derives every
// profile from the snapshot's footprints — no model is loaded, by the
// batch or by the serial query — and each slot answers as the serial
// query does.
func TestQueryBatchExecLoadsNoModel(t *testing.T) {
	store := &countingStore{Repository: repo.NewInMemory()}
	eng, refID := newLadderOverStore(t, store)
	ctx := context.Background()
	q := fmt.Sprintf(`SELECT CORR %q WITHIN 50%% ON flops <= 300%% EXEC batch=4 PICK fastest`, refID)

	store.loads.Store(0)
	serial, err := eng.QueryContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) == 0 {
		t.Fatal("EXEC query returned nothing; the test is vacuous")
	}
	const n = 8
	workload := make([]string, n)
	for i := range workload {
		workload[i] = q
	}
	results, errs := eng.QueryBatchContext(ctx, workload)
	want := mustMarshal(t, serial)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("batch slot %d: %v", i, err)
		}
		if got := mustMarshal(t, results[i]); !bytes.Equal(got, want) {
			t.Fatalf("batch slot %d diverges from serial:\n got %s\nwant %s", i, got, want)
		}
	}
	if got := store.loads.Load(); got != 0 {
		t.Fatalf("an EXEC query and a batch of %d loaded %d models, want 0", n, got)
	}
}

// TestExecQueryReadsSnapshotNotStore: once the ladder is indexed, EXEC
// queries need no model, so with every store Load failing,
// QueryContext, ExplainContext and QueryBatchContext still answer — and
// answer as TestExecQueryPathsMatchOracle's oracle does, measuring each
// model from the repository under the query's setting.
func TestExecQueryReadsSnapshotNotStore(t *testing.T) {
	store := &countingStore{Repository: repo.NewInMemory()}
	eng, refID := newLadderOverStore(t, store)
	snap := eng.cat.Snapshot()
	var qs []oracleQuery
	for i, exec := range []string{" EXEC batch=4", " EXEC batch=16 precision=fp16", " EXEC overhead=0.5"} {
		qs = append(qs, randomQueries(t, int64(10+i), 40, []string{refID}, false, exec, snap.Profile, snap.IDs())...)
	}
	want := make([][]Result, len(qs))
	texts := make([]string, len(qs))
	for i, q := range qs {
		setting, err := execSetting(q.ast.Exec)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = snapshotOracle(snap, q.ast, func(id string) (resource.Profile, bool) {
			m, err := store.Repository.Load(id)
			if err != nil {
				t.Fatal(err)
			}
			p, err := resource.NewProfiler(nil).MeasureWith(m, setting)
			if err != nil {
				t.Fatal(err)
			}
			return p, true
		})
		texts[i] = q.text
	}

	store.fail.Store(true)
	store.loads.Store(0)
	ctx := context.Background()
	rep := &oracleReport{t: t, bad: make(map[string]int)}
	for i, q := range qs {
		got, err := eng.QueryContext(ctx, q.text)
		if err != nil {
			t.Fatalf("QueryContext(%s): %v", q.text, err)
		}
		rep.check("QueryContext", q, got, want[i])
		exp, err := eng.ExplainContext(ctx, q.text)
		if err != nil {
			t.Fatalf("ExplainContext(%s): %v", q.text, err)
		}
		rep.check("ExplainContext", q, exp.Results, want[i])
	}
	got, errs := eng.QueryBatchContext(ctx, texts)
	for i, q := range qs {
		if errs[i] != nil {
			t.Fatalf("QueryBatchContext(%s): %v", q.text, errs[i])
		}
		rep.check("QueryBatchContext", q, got[i], want[i])
	}
	rep.summary()
	if n := store.loads.Load(); n != 0 {
		t.Fatalf("EXEC queries tried %d store loads, want 0", n)
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

// dropProfile removes one model's resource footprint through the
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
		Footprints map[string]resource.Footprint `json:"footprints"`
	}
	if err := json.Unmarshal(snap["resource"], &res); err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Footprints[id]; !ok {
		t.Fatalf("no footprint for %s in snapshot", id)
	}
	delete(res.Footprints, id)
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
