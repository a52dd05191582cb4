package catalog

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"sommelier/internal/equiv"
	"sommelier/internal/graph"
	"sommelier/internal/index"
	"sommelier/internal/nn"
	"sommelier/internal/obs"
	"sommelier/internal/tensor"
)

// observedCatalog is a catalog running the real analysis, with an
// observer to count its work through.
func observedCatalog(seed uint64, workers int) (*Catalog, *obs.Observer) {
	o := obs.New()
	return New(Config{Seed: seed, Workers: workers, ValidationSize: 40, Observer: o}), o
}

func testEntries(t testing.TB, prefix string, n int) []index.Entry {
	t.Helper()
	entries := make([]index.Entry, n)
	for i := range entries {
		entries[i] = *testModel(t, fmt.Sprintf("%s-%d", prefix, i), uint64(100+i))
	}
	return entries
}

func observes(o *obs.Observer) int64  { return o.Snapshot().Counters["catalog_observe_total"] }
func evidenced(o *obs.Observer) int64 { return o.Snapshot().Gauges["catalog_evidence_entries"] }

// TestEachModelObservedOnce is the work-count contract of the
// observe/compare split: inference at index time is linear in the
// number of models, whatever the number of planned pairs.
func TestEachModelObservedOnce(t *testing.T) {
	ctx := context.Background()
	c, o := observedCatalog(11, 3)
	entries := testEntries(t, "once", 9)
	if n, err := c.IndexBatch(ctx, entries[:8]); err != nil || n != 8 {
		t.Fatalf("IndexBatch = %d, %v", n, err)
	}
	if got := observes(o); got != 8 {
		t.Fatalf("batch of 8 same-shape models ran %d observations, want 8", got)
	}
	if got := evidenced(o); got != 8 {
		t.Fatalf("evidence table holds %d entries, want 8", got)
	}
	// One more model is sampled against five committed partners, all of
	// which the table already knows.
	if err := c.Index(ctx, entries[8].ID, entries[8].Model); err != nil {
		t.Fatal(err)
	}
	if got := observes(o); got != 9 {
		t.Fatalf("indexing one more model brought observations to %d, want 9", got)
	}
	if got := o.Snapshot().Counters["catalog_evidence_hits_total"]; got != 5 {
		t.Fatalf("catalog_evidence_hits_total = %d, want the 5 sampled partners", got)
	}
	if got := o.Snapshot().Histograms["catalog_observe_ms"].Count; got != 9 {
		t.Fatalf("catalog_observe_ms has %d samples, want 9", got)
	}
}

// failingAnalyzer fails every pair whose new model is marked bad. The
// rest of the pipeline, observations included, runs as usual.
type failingAnalyzer struct{ bad map[string]bool }

func (f failingAnalyzer) Analyze(ref, cand index.Entry) (index.AnalysisResult, error) {
	if f.bad[ref.ID] {
		return index.AnalysisResult{}, errors.New("synthetic analysis failure")
	}
	return index.AnalysisResult{}, nil
}

// TestEvidenceKeptOnlyForCommittedModels: a call that commits nothing
// stores nothing, and a partial commit stores evidence for exactly the
// models it committed.
func TestEvidenceKeptOnlyForCommittedModels(t *testing.T) {
	entries := testEntries(t, "kept", 6)

	t.Run("canceled", func(t *testing.T) {
		c, o := observedCatalog(12, 2)
		if _, err := c.IndexBatch(context.Background(), entries[:3]); err != nil {
			t.Fatal(err)
		}
		before := evidenced(o)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if n, err := c.IndexBatch(ctx, entries[3:]); !errors.Is(err, context.Canceled) || n != 0 {
			t.Fatalf("canceled IndexBatch = %d, %v", n, err)
		}
		if got := evidenced(o); got != before {
			t.Fatalf("canceled batch moved the evidence table from %d to %d entries", before, got)
		}
	})

	t.Run("failing analyzer", func(t *testing.T) {
		o := obs.New()
		bad := map[string]bool{entries[3].ID: true}
		c := New(Config{Seed: 12, ValidationSize: 40, Analyzer: failingAnalyzer{bad}, Observer: o})
		if n, err := c.IndexBatch(context.Background(), entries[:3]); err != nil || n != 3 {
			t.Fatalf("IndexBatch = %d, %v", n, err)
		}
		before, ran := evidenced(o), observes(o)
		if before != 3 {
			t.Fatalf("evidence table holds %d entries, want 3", before)
		}
		// The batch observes its three models, fails on the first of
		// them, commits nothing and so keeps none of what it saw.
		if n, err := c.IndexBatch(context.Background(), entries[3:]); err == nil || n != 0 {
			t.Fatalf("IndexBatch = %d, %v, want nothing committed and an error", n, err)
		}
		if got := observes(o) - ran; got != 3 {
			t.Fatalf("failing batch ran %d observations, want 3", got)
		}
		if got := evidenced(o); got != before {
			t.Fatalf("failing batch moved the evidence table from %d to %d entries", before, got)
		}
	})

	t.Run("unrunnable model", func(t *testing.T) {
		nn.RegisterPreprocessor("catalog-test-wrong-shape", func(*tensor.Tensor) *tensor.Tensor {
			return tensor.New(1)
		})
		c, o := observedCatalog(12, 2)
		batch := append([]index.Entry(nil), entries[:4]...)
		broken := batch[2].Model.Clone()
		broken.Preprocessor = "catalog-test-wrong-shape"
		batch[2].Model = broken
		n, err := c.IndexBatch(context.Background(), batch)
		if err == nil || n != 2 {
			t.Fatalf("IndexBatch = %d, %v, want 2 committed and an error", n, err)
		}
		if got := evidenced(o); got != 2 {
			t.Fatalf("evidence table holds %d entries, want one per committed model (2)", got)
		}
		// The survivors' evidence is good: the rest index against it.
		if n, err := c.IndexBatch(context.Background(), entries[3:]); err != nil || n != 3 {
			t.Fatalf("follow-up IndexBatch = %d, %v", n, err)
		}
	})
}

// TestLostRaceKeepsWinnersEvidence: two writers index different graphs
// under one ID. The one that commits second loses with
// ErrAlreadyIndexed, and what it observed about its own graph must not
// replace the evidence of the graph the index actually holds.
func TestLostRaceKeepsWinnersEvidence(t *testing.T) {
	ctx := context.Background()
	c, o := observedCatalog(13, 2)
	entries := testEntries(t, "race", 2)
	partner, winner := entries[0], entries[1]
	if err := c.Index(ctx, partner.ID, partner.Model); err != nil {
		t.Fatal(err)
	}

	// The loser's graph runs through a preprocessor that parks its
	// first forward pass until released: planned, not yet committed.
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	nn.RegisterPreprocessor("catalog-test-gate", func(raw *tensor.Tensor) *tensor.Tensor {
		once.Do(func() { close(entered) })
		<-release
		return raw
	})
	loser := winner.Model.Clone()
	loser.Preprocessor = "catalog-test-gate"
	lost := make(chan error, 1)
	go func() { lost <- c.Index(ctx, winner.ID, loser) }()
	<-entered

	if err := c.Index(ctx, winner.ID, winner.Model); err != nil {
		t.Fatal(err)
	}
	key := evidenceKey{winner.ID, c.pairs.probes.key(winner.Model)}
	c.mu.Lock()
	kept := c.evidence[key]
	c.mu.Unlock()
	before := evidenced(o)
	if kept == nil || before != 2 {
		t.Fatalf("winner's evidence missing: %v, %d entries", kept, before)
	}

	close(release)
	if err := <-lost; !errors.Is(err, index.ErrAlreadyIndexed) {
		t.Fatalf("second writer's Index = %v, want ErrAlreadyIndexed", err)
	}
	c.mu.Lock()
	after := c.evidence[key]
	c.mu.Unlock()
	if after != kept || evidenced(o) != before {
		t.Fatal("the losing writer's evidence replaced the committed model's")
	}
}

// TestRestoreDropsEvidence: the table is a cache over the committed
// models, so Restore empties it, restored partners are observed again
// when first sampled, and the index that results is the one an
// unrestored catalog builds.
func TestRestoreDropsEvidence(t *testing.T) {
	ctx := context.Background()
	// Six models fit within the sample size, so indexing them draws
	// nothing from the index RNG and both catalogs below sample the
	// seventh model's partners identically.
	entries := testEntries(t, "restore", 7)
	byID := make(map[string]*graph.Model)
	for _, e := range entries {
		byID[e.ID] = e.Model
	}
	resolve := func(id string) (*graph.Model, error) { return byID[id], nil }

	straight, _ := observedCatalog(14, 2)
	if _, err := straight.IndexBatch(ctx, entries[:6]); err != nil {
		t.Fatal(err)
	}
	sem, res, refs := straight.Export()
	if err := straight.Index(ctx, entries[6].ID, entries[6].Model); err != nil {
		t.Fatal(err)
	}
	want := exportJSON(t, straight)

	restored, o := observedCatalog(14, 2)
	if _, err := restored.IndexBatch(ctx, entries[:6]); err != nil {
		t.Fatal(err)
	}
	if got := evidenced(o); got != 6 {
		t.Fatalf("evidence table holds %d entries before Restore, want 6", got)
	}
	if err := restored.Restore(sem, res, refs, resolve); err != nil {
		t.Fatal(err)
	}
	if got := evidenced(o); got != 0 {
		t.Fatalf("evidence table holds %d entries after Restore, want 0", got)
	}
	ran := observes(o)
	if err := restored.Index(ctx, entries[6].ID, entries[6].Model); err != nil {
		t.Fatal(err)
	}
	if got := observes(o) - ran; got != 6 {
		t.Fatalf("post-restore Index ran %d observations, want the new model and its 5 partners", got)
	}
	if got := exportJSON(t, restored); string(got) != string(want) {
		t.Fatal("index after Restore + Index differs from the unrestored catalog's")
	}
}

// regressionEntry is a label-free regression model: no softmax, so its
// bound half sends the output-norm probe through the executor.
func regressionEntry(t testing.TB, name string, seed uint64) index.Entry {
	t.Helper()
	b := graph.NewBuilder(name, graph.TaskRegression, tensor.Shape{6}, tensor.NewRNG(seed))
	b.Dense(10)
	b.Tanh()
	b.Dense(4)
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return index.Entry{ID: name + "@v1", Model: m}
}

// TestRegisterPathEvidenceMatchesObserve: a sequence of single-model
// Index calls — what a register runs — stores for every model the
// evidence a serial equiv.Observe gives (the halves ran on two workers
// or one), and commits one index at 1, 2 and 4 workers.
func TestRegisterPathEvidenceMatchesObserve(t *testing.T) {
	ctx := context.Background()
	entries := testEntries(t, "register", 8)
	for i := 0; i < 4; i++ {
		entries = append(entries, regressionEntry(t, fmt.Sprintf("register-reg-%d", i), uint64(200+i)))
	}
	var want []byte
	for _, workers := range []int{1, 2, 4} {
		c, o := observedCatalog(16, workers)
		for _, e := range entries {
			if err := c.Index(ctx, e.ID, e.Model); err != nil {
				t.Fatal(err)
			}
		}
		// A model is observed on its own probe set once it or a later
		// model samples it as a partner; every model the table holds
		// must be what the serial oracle sees, regression models (whose
		// bound half runs the output-norm probe) included.
		stored, regressions := 0, 0
		for _, e := range entries {
			key := evidenceKey{e.ID, c.pairs.probes.key(e.Model)}
			c.mu.Lock()
			got := c.evidence[key]
			c.mu.Unlock()
			if got == nil {
				continue
			}
			oracle, err := equiv.Observe(e.Model, c.pairs.probes.For(e.Model), c.pairs.opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, oracle) {
				t.Fatalf("%d workers: stored evidence of %s differs from equiv.Observe's", workers, e.ID)
			}
			stored++
			if e.Model.Task == graph.TaskRegression {
				regressions++
			}
		}
		snap := o.Snapshot()
		if runs, bounds := snap.Counters["catalog_observe_total"], snap.Histograms["catalog_bound_ms"].Count; runs != int64(stored) || bounds != runs {
			t.Fatalf("%d workers: %d observe and %d bound tasks for %d stored observations", workers, runs, bounds, stored)
		}
		if stored < len(entries)-2 || regressions < 2 {
			t.Fatalf("%d workers: only %d observations stored (%d of regression models)", workers, stored, regressions)
		}
		got := exportJSON(t, c)
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("index after registers on %d workers differs from 1 worker's", workers)
		}
	}
}

// TestCancelBetweenHalvesStoresNothing: a register canceled after its
// observation's sweep and before the bound half got a worker commits
// nothing and stores no evidence, and the same model indexes cleanly
// afterwards. One worker makes the order certain: the sweep holds the
// only slot, cancels from its preprocessor, and the bound task finds
// the context done when the slot frees.
func TestCancelBetweenHalvesStoresNothing(t *testing.T) {
	c, o := observedCatalog(17, 1)
	entries := testEntries(t, "halves", 4)
	if n, err := c.IndexBatch(context.Background(), entries[:3]); err != nil || n != 3 {
		t.Fatalf("IndexBatch = %d, %v", n, err)
	}
	before, ran := evidenced(o), observes(o)
	bounds := o.Snapshot().Histograms["catalog_bound_ms"].Count

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	nn.RegisterPreprocessor("catalog-test-cancel", func(raw *tensor.Tensor) *tensor.Tensor {
		cancel()
		return raw
	})
	target := entries[3]
	m := target.Model.Clone()
	m.Preprocessor = "catalog-test-cancel"
	if err := c.Index(ctx, target.ID, m); !errors.Is(err, context.Canceled) {
		t.Fatalf("Index canceled mid-observation = %v, want context.Canceled", err)
	}
	snap := o.Snapshot()
	if got := observes(o) - ran; got != 1 {
		t.Fatalf("the canceled Index ran %d sweeps, want 1", got)
	}
	if got := snap.Histograms["catalog_bound_ms"].Count; got != bounds {
		t.Fatalf("the bound half ran after the cancel (%d bound tasks, %d before)", got, bounds)
	}
	if c.Snapshot().Contains(target.ID) {
		t.Fatal("a canceled Index committed its model")
	}
	if got := evidenced(o); got != before {
		t.Fatalf("a canceled Index moved the evidence table from %d to %d entries", before, got)
	}
	if err := c.Index(context.Background(), target.ID, target.Model); err != nil {
		t.Fatal(err)
	}
	if got := evidenced(o); got != before+1 {
		t.Fatalf("evidence table holds %d entries after the retry, want %d", got, before+1)
	}
}
