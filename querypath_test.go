package sommelier

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"sommelier/internal/obs"
	"sommelier/internal/repo"
)

// queryFixture is the bench catalog indexed once per test binary: the
// store and the SaveIndexes bytes, so every query-path test and
// benchmark gets a fresh engine (and observer) without re-indexing.
var queryFixture struct {
	once  sync.Once
	store *repo.Repository
	index []byte
	err   error
}

// queryEngine returns an engine over the indexed bench catalog, with
// the query mix's default reference set, and the reference every shape
// but "task" names.
func queryEngine(t testing.TB, opts ...Option) (*Engine, string) {
	t.Helper()
	f := &queryFixture
	f.once.Do(func() {
		f.store = benchCatalog(t, 0xbe7c)
		eng, err := NewEngine(f.store, WithSeed(17), WithValidationSize(80))
		if err == nil {
			err = eng.IndexAllContext(context.Background())
		}
		var buf bytes.Buffer
		if err == nil {
			err = eng.SaveIndexes(&buf)
		}
		f.index, f.err = buf.Bytes(), err
	})
	if f.err != nil {
		t.Fatal(f.err)
	}
	eng, err := NewEngine(f.store, append([]Option{WithSeed(17), WithValidationSize(80)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadIndexes(bytes.NewReader(f.index)); err != nil {
		t.Fatal(err)
	}
	ref := f.store.List()[0].ID
	if err := eng.SetDefaultReference("classification", ref); err != nil {
		t.Fatal(err)
	}
	return eng, ref
}

// mixShapeQueries renders the six shapes of sommperf's query_mix
// (bench/gen.go's newQuery) against ref.
func mixShapeQueries(ref string) []struct{ name, text string } {
	return []struct{ name, text string }{
		{"sim", fmt.Sprintf(`SELECT CORR %q WITHIN 50%% PICK most_similar`, ref)},
		{"budget_rel", fmt.Sprintf(`SELECT CORR %q WITHIN 50%% ON memory <= 80%% PICK smallest`, ref)},
		{"budget_abs", fmt.Sprintf(`SELECT CORR %q WITHIN 50%% ON memory <= 0.1MB AND latency <= 0.0003ms PICK fastest`, ref)},
		{"range", fmt.Sprintf(`SELECT CORR %q WITHIN 50%% ON flops >= 10%% AND flops <= 150%% PICK cheapest`, ref)},
		{"exec", fmt.Sprintf(`SELECT CORR %q WITHIN 50%% ON memory <= 80%% EXEC batch=8 PICK smallest`, ref)},
		{"task", `SELECT TASK "classification" WITHIN 50% ON memory <= 80% PICK smallest`},
	}
}

// wantQueryTrees is the canonical span forest of TestQueryTracesPinned's
// workload, then Explain's stage timings and the query metrics' counts.
// Its names are what /v1/tracez and bench/'s engine.stage_* read.
const wantQueryTrees = `explain
  candidates
  filter
  parse
  rank
explain
  candidates
  filter
  parse
  rank
explain
  candidates
  filter
  parse
  rank
explain
  candidates
  filter
  parse
  rank
explain
  candidates
  filter
  parse
  rank
explain
  candidates
  filter
  parse
  rank
query
  candidates
  filter
  parse
  rank
query
  candidates
  filter
  parse
  rank
query
  candidates
  filter
  parse
  rank
query
  candidates
  filter
  parse
  rank
query
  candidates
  filter
  parse
  rank
query
  candidates
  filter
  parse
  rank
query
  parse
query_batch [7 queries]
  parse
  query [batch[0]]
    candidates
    filter
    rank
  query [batch[1]]
    candidates
    filter
    rank
  query [batch[2]]
    candidates
    filter
    rank
  query [batch[3]]
    candidates
    filter
    rank
  query [batch[4]]
    candidates
    filter
    rank
  query [batch[5]]
    candidates
    filter
    rank

sim parse 0.001
sim candidates 0.001
sim filter 0.001
sim rank 0.001
budget_rel parse 0.001
budget_rel candidates 0.001
budget_rel filter 0.001
budget_rel rank 0.001
budget_abs parse 0.001
budget_abs candidates 0.001
budget_abs filter 0.001
budget_abs rank 0.001
range parse 0.001
range candidates 0.001
range filter 0.001
range rank 0.001
exec parse 0.001
exec candidates 0.001
exec filter 0.001
exec rank 0.001
task parse 0.001
task candidates 0.001
task filter 0.001
task rank 0.001

queries_total 18
query_batch_total_ms 1
query_candidates_ms 18
query_errors_total 2
query_filter_ms 18
query_parse_ms 14
query_rank_ms 18
query_total_ms 19
`

// TestQueryTracesPinned pins what the query path reports under a
// TickClock: the span tree of QueryContext (every mix shape and a parse
// error), QueryBatchContext (the six shapes and a parse error) and
// ExplainContext, Explain's stage names and durations, and which query
// metrics moved by how much. Faster bookkeeping must not change a byte
// of it.
func TestQueryTracesPinned(t *testing.T) {
	o := obs.New(obs.WithClock(obs.NewTickClock(0, 1000)))
	eng, ref := queryEngine(t, WithObserver(o))
	eng.cfg.queryWorkers = 2
	ctx := context.Background()
	shapes := mixShapeQueries(ref)
	var texts []string
	for _, s := range shapes {
		if _, err := eng.QueryContext(ctx, s.text); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		texts = append(texts, s.text)
	}
	if _, err := eng.QueryContext(ctx, "SELECT CORR"); err == nil {
		t.Fatal("a query without a reference parsed")
	}
	_, errs := eng.QueryBatchContext(ctx, append(texts, "SELECT CORR m $"))
	for i, err := range errs {
		if (err != nil) != (i == len(texts)) {
			t.Fatalf("batch[%d]: %v", i, err)
		}
	}
	var stages []string
	for _, s := range shapes {
		exp, err := eng.ExplainContext(ctx, s.text)
		if err != nil {
			t.Fatalf("explain %s: %v", s.name, err)
		}
		for _, st := range exp.Stages {
			stages = append(stages, fmt.Sprintf("%s %s %g", s.name, st.Stage, st.Millis))
		}
	}

	snap := o.Snapshot()
	var metrics []string
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "quer") && v != 0 {
			metrics = append(metrics, fmt.Sprintf("%s %d", name, v))
		}
	}
	for name, h := range snap.Histograms {
		if strings.HasPrefix(name, "query") && h.Count != 0 {
			metrics = append(metrics, fmt.Sprintf("%s %d", name, h.Count))
		}
	}
	sort.Strings(metrics)

	got := o.Tracer().TreeString() + "\n" + strings.Join(stages, "\n") + "\n\n" + strings.Join(metrics, "\n") + "\n"
	if got != wantQueryTrees {
		t.Fatalf("query traces moved:\n%s", got)
	}
}

// queryAllocCeiling is the most one QueryContext of each mix shape may
// allocate over the bench catalog: the Query and its constraints (an
// EXEC spec's map among them), the root span and its context, and the
// result slice's growth. An EXEC query derives its profiles from the
// snapshot as every other shape does, so it allocates like one.
var queryAllocCeiling = map[string]float64{
	"sim": 8, "budget_rel": 5, "budget_abs": 10, "range": 9, "exec": 7, "task": 5,
}

func TestQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not pinned under the race detector")
	}
	eng, ref := queryEngine(t)
	ctx := context.Background()
	shapes := mixShapeQueries(ref)
	// The root span's ID is boxed into its context, which costs nothing
	// below 256 (the runtime's small-integer cache): a fresh engine's
	// first ~50 queries allocate one fewer. Measure past them, as
	// BenchmarkQuery does.
	for i := 0; i < 64; i++ {
		if _, err := eng.QueryContext(ctx, shapes[0].text); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range shapes {
		got := testing.AllocsPerRun(100, func() {
			if _, err := eng.QueryContext(ctx, s.text); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %v allocs", s.name, got)
		if got > queryAllocCeiling[s.name] {
			t.Errorf("QueryContext(%s) allocates %v times, ceiling %v", s.name, got, queryAllocCeiling[s.name])
		}
	}
}

// BenchmarkQuery is the engine's layer number: one QueryContext of each
// mix shape over the bench catalog, parse to rank, with the engine's
// own metrics and spans on.
func BenchmarkQuery(b *testing.B) {
	eng, ref := queryEngine(b)
	ctx := context.Background()
	for _, s := range mixShapeQueries(ref) {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.QueryContext(ctx, s.text); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
