package sommelier

import (
	"context"
	"errors"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"sommelier/internal/obs"
)

// tickObserver builds an observer on a deterministic clock so span
// durations and histogram values are identical across runs.
func tickObserver() *obs.Observer {
	return obs.New(obs.WithClock(obs.NewTickClock(0, int64(time.Millisecond))))
}

// indexedTreeString runs a seeded IndexAllContext over a fresh copy of
// the bench catalog and returns the canonical span tree.
func indexedTreeString(t *testing.T, workers int) string {
	t.Helper()
	store := benchCatalog(t, 0xbe7c)
	o := tickObserver()
	eng, err := NewEngine(store,
		WithSeed(17),
		WithValidationSize(80),
		WithIndexWorkers(workers),
		WithObserver(o))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.IndexAllContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	return o.Tracer().TreeString()
}

// TestIndexAllSpanTreeDeterministic is the tracing half of the
// pipeline's determinism contract: two seeded IndexAll runs produce
// identical span trees (durations excluded from the canonical form),
// regardless of how the scheduler interleaved the worker pool.
func TestIndexAllSpanTreeDeterministic(t *testing.T) {
	first := indexedTreeString(t, 4)
	second := indexedTreeString(t, 4)
	if first != second {
		t.Fatalf("span trees differ across identical seeded runs:\n--- first\n%s\n--- second\n%s", first, second)
	}
	// And across worker counts: parallelism must not change the tree.
	serial := indexedTreeString(t, 1)
	if first != serial {
		t.Fatalf("span tree with 4 workers differs from serial:\n--- parallel\n%s\n--- serial\n%s", first, serial)
	}
	for _, want := range []string{"catalog.indexall", "plan", "analyze", "commit", "profile [", "observe [", "bound [", "pair ["} {
		if !strings.Contains(first, want) {
			t.Errorf("span tree missing %q:\n%s", want, first)
		}
	}
}

// TestSerialRegisterRunsOneTaskAtATime: with IndexWorkers(1) the pool
// runs a register's analysis one task at a time — profile, the
// observation's sweep and then its bound factor, each pair — so under a
// TickClock no two of an analyze span's children overlap.
func TestSerialRegisterRunsOneTaskAtATime(t *testing.T) {
	o := tickObserver()
	registerAllWith(t, benchModels(t, 0xbe7c), 1, o)
	spans := o.Tracer().Recent()
	children := make(map[uint64][]obs.SpanRecord)
	for _, s := range spans {
		if s.Name == "analyze" {
			children[s.ID] = nil
		}
	}
	for _, s := range spans {
		if _, ok := children[s.Parent]; ok {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	halves := 0
	for _, tasks := range children {
		sort.Slice(tasks, func(i, j int) bool { return tasks[i].StartNS < tasks[j].StartNS })
		var names []string
		for i, s := range tasks {
			names = append(names, s.Name)
			if i > 0 && s.StartNS < tasks[i-1].StartNS+tasks[i-1].DurNS {
				t.Fatalf("%s [%s] starts before %s [%s] ends on one worker", s.Name, s.Detail, tasks[i-1].Name, tasks[i-1].Detail)
			}
		}
		if slices.Contains(names, "observe") && slices.Contains(names, "bound") {
			halves++
		}
	}
	if len(children) != 24 || halves == 0 {
		t.Fatalf("%d registers traced, %d with both observation halves", len(children), halves)
	}
}

// TestIndexAllContextCancellation checks that cancelling the context
// aborts the worker pool before commit: nothing is indexed, the
// canceled counter fires, and the error is the context's.
func TestIndexAllContextCancellation(t *testing.T) {
	store := benchCatalog(t, 0xbe7c)
	o := obs.New()
	eng, err := NewEngine(store,
		WithSeed(17), WithValidationSize(80), WithIndexWorkers(4), WithObserver(o))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := eng.IndexAllContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("IndexAllContext after cancel = %v, want context.Canceled", err)
	}
	if n := eng.IndexedLen(); n != 0 {
		t.Fatalf("canceled IndexAll committed %d models", n)
	}
	if got := o.Snapshot().Counters["catalog_index_canceled_total"]; got != 1 {
		t.Fatalf("catalog_index_canceled_total = %d, want 1", got)
	}
	// The engine stays usable: a fresh context indexes everything.
	if err := eng.IndexAllContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := eng.IndexedLen(); n != 24 {
		t.Fatalf("re-indexed %d models, want 24", n)
	}
}

// TestIndexAllMidFlightCancellation cancels while the pool is working.
// Whether the batch wins the race or not, the engine must end in a
// consistent state: either everything committed or nothing did.
func TestIndexAllMidFlightCancellation(t *testing.T) {
	store := benchCatalog(t, 0xbe7c)
	eng, err := NewEngine(store, WithSeed(17), WithValidationSize(80), WithIndexWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	err = eng.IndexAllContext(ctx)
	switch n := eng.IndexedLen(); {
	case err == nil && n == 24: // batch finished first
	case errors.Is(err, context.Canceled) && n == 0: // cancel won
	default:
		t.Fatalf("inconsistent state after mid-flight cancel: err=%v indexed=%d", err, n)
	}
}

// TestExplainStageTimings checks the Explain surface carries the query
// pipeline's per-stage span durations, deterministic under a TickClock.
func TestExplainStageTimings(t *testing.T) {
	run := func() *Explanation {
		store := benchCatalog(t, 0xbe7c)
		eng, err := NewEngine(store,
			WithSeed(17), WithValidationSize(80), WithObserver(tickObserver()))
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if err := eng.IndexAllContext(ctx); err != nil {
			t.Fatal(err)
		}
		refID := store.List()[0].ID
		exp, err := eng.ExplainContext(ctx, `SELECT CORR "`+refID+`" WITHIN 85% PICK most_similar`)
		if err != nil {
			t.Fatal(err)
		}
		return exp
	}
	exp := run()
	wantStages := []string{"parse", "candidates", "filter", "rank"}
	if len(exp.Stages) != len(wantStages) {
		t.Fatalf("explanation has %d stages, want %d: %+v", len(exp.Stages), len(wantStages), exp.Stages)
	}
	for i, want := range wantStages {
		st := exp.Stages[i]
		if st.Stage != want {
			t.Errorf("stage[%d] = %q, want %q", i, st.Stage, want)
		}
		if st.Millis <= 0 {
			t.Errorf("stage %q duration = %v, want > 0 under TickClock", st.Stage, st.Millis)
		}
	}
	if !strings.Contains(exp.String(), "timings:") {
		t.Errorf("Explanation.String() missing timings section:\n%s", exp.String())
	}
	// TickClock determinism: a second identical run reports identical
	// stage durations.
	again := run()
	for i := range exp.Stages {
		if exp.Stages[i] != again.Stages[i] {
			t.Fatalf("stage timings differ across identical runs: %+v vs %+v",
				exp.Stages[i], again.Stages[i])
		}
	}
}

// TestConcurrentQueryIndexMetrics hammers the observer from both sides
// at once — queries racing a parallel IndexAll on one engine — and
// checks the books balance afterwards. Run under -race this is the
// metric-write stress test the observability layer promises to survive.
func TestConcurrentQueryIndexMetrics(t *testing.T) {
	store := benchCatalog(t, 0xbe7c)
	o := obs.New()
	eng, err := NewEngine(store,
		WithSeed(17), WithValidationSize(80), WithIndexWorkers(4), WithObserver(o))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	refID := store.List()[0].ID
	q := `SELECT CORR "` + refID + `" WITHIN 85% PICK most_similar`

	const queriers = 4
	const perQuerier = 8
	var wg sync.WaitGroup
	wg.Add(queriers + 1)
	go func() {
		defer wg.Done()
		if err := eng.IndexAllContext(ctx); err != nil {
			t.Error(err)
		}
	}()
	for g := 0; g < queriers; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perQuerier; i++ {
				// Until the batch commits, the reference is unindexed and
				// the query errors — that's fine; both outcomes write
				// metrics, which is the point of the stress.
				_, _ = eng.QueryContext(ctx, q)
				// Snapshot readers race the writers too.
				_ = o.Snapshot()
			}
		}()
	}
	wg.Wait()

	snap := o.Snapshot()
	if got := snap.Counters["queries_total"]; got != queriers*perQuerier {
		t.Fatalf("queries_total = %d, want %d", got, queriers*perQuerier)
	}
	// The root histogram observes every query, success or error (the
	// deferred End on the root span), so its count must match exactly.
	if got := snap.Histograms["query_total_ms"].Count; got != queriers*perQuerier {
		t.Fatalf("query_total_ms count = %d, want %d", got, queriers*perQuerier)
	}
	if errs := snap.Counters["query_errors_total"]; errs > queriers*perQuerier {
		t.Fatalf("query_errors_total = %d > %d queries issued", errs, queriers*perQuerier)
	}
	if got := snap.Counters["catalog_models_indexed_total"]; got != 24 {
		t.Fatalf("catalog_models_indexed_total = %d, want 24", got)
	}
	if busy := snap.Gauges["catalog_workers_busy"]; busy != 0 {
		t.Fatalf("catalog_workers_busy = %d after quiescence, want 0", busy)
	}
	if got := snap.Gauges["catalog_semantic_models"]; got != 24 {
		t.Fatalf("catalog_semantic_models gauge = %d, want 24", got)
	}
}
