package catalog

import (
	"context"
	"fmt"
	"testing"

	"sommelier/internal/graph"
	"sommelier/internal/index"
	"sommelier/internal/obs"
	"sommelier/internal/resource"
	"sommelier/internal/zoo"
)

// BenchmarkIndexBatch indexes a 48-model zoo — six base networks of two
// input widths, each with seven perturbed variants — into an empty
// catalog. Alongside time and allocations it reports how many model
// sweeps the batch ran per model indexed: 1 while every model is
// observed once, however many pairs it is compared in.
func BenchmarkIndexBatch(b *testing.B) {
	var entries []index.Entry
	for base := 0; base < 6; base++ {
		m, err := zoo.DenseResidualNet(zoo.Config{
			Name: fmt.Sprintf("base%d", base), Seed: uint64(base + 1), InDim: 16 + 8*(base%2), Width: 24 + 8*base,
		})
		if err != nil {
			b.Fatal(err)
		}
		entries = append(entries, index.Entry{ID: m.Name + "@v1", Model: m})
		for v := 1; v < 8; v++ {
			name := fmt.Sprintf("%s-var%d", m.Name, v)
			entries = append(entries, index.Entry{
				ID: name + "@v1", Model: zoo.Perturb(m, name, 0.05*float64(v), uint64(10*base+v)),
			})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var observations int64
	for i := 0; i < b.N; i++ {
		o := obs.New()
		c := New(Config{Seed: 7, ValidationSize: 64, Observer: o})
		if n, err := c.IndexBatch(context.Background(), entries); err != nil || n != len(entries) {
			b.Fatalf("IndexBatch = %d, %v", n, err)
		}
		observations += o.Snapshot().Counters["catalog_observe_total"]
	}
	b.ReportMetric(float64(observations)/float64(b.N*len(entries)), "observations/model")
}

// tenthAnalyzer gives every measured pair the same low level, so a
// commit touches the new model's list and its sampled partners' and —
// with no measured diffs restored — derives nothing further.
type tenthAnalyzer struct{}

func (tenthAnalyzer) Analyze(ref, cand index.Entry) (index.AnalysisResult, error) {
	return index.AnalysisResult{LevelForRef: 0.1, LevelForCand: 0.1}, nil
}

// BenchmarkPublish times one Index commit — plan, observe, compare,
// commit, publish — into a catalog restored with N models whose
// candidate lists hold L records each. Everything before the commit is
// the same small constant at every rung (one tiny model, six
// observations over four probes), so ns/op and B/op across the ladder
// show what a commit pays per indexed model and per list record it did
// not touch.
func BenchmarkPublish(b *testing.B) {
	model := testModel(b, "publish", 1).Model
	resolve := func(string) (*graph.Model, error) { return model, nil }
	for _, n := range []int{256, 1024, 4096} {
		for _, l := range []int{8, 64} {
			b.Run(fmt.Sprintf("N=%d/L=%d", n, l), func(b *testing.B) {
				var sem index.SemanticSnapshot
				profiles := make(map[string]resource.Profile, n)
				for i := 0; i < n; i++ {
					e := index.SemanticEntrySnapshot{ID: fmt.Sprintf("m%d@v1", i), Fingerprint: fmt.Sprintf("fp%d", i)}
					for j := 1; j <= l; j++ {
						e.Candidates = append(e.Candidates, index.Candidate{
							ID: fmt.Sprintf("m%d@v1", (i+j)%n), Level: 1 - float64(j)/float64(l+1),
						})
					}
					sem.Entries = append(sem.Entries, e)
					profiles[e.ID] = resource.Profile{FLOPs: int64(i + 1), MemoryBytes: int64(i + 1), LatencyMS: 1}
				}
				c := New(Config{Seed: 7, ValidationSize: 4, Workers: 1, Analyzer: tenthAnalyzer{}})
				if err := c.Restore(sem, index.ResourceSnapshot{Profiles: profiles}, nil, resolve); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := c.Index(context.Background(), fmt.Sprintf("new%d@v1", i), model); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
