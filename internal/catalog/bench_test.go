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

// BenchmarkIndexOne times one Index — what a register pays for — of a
// bench-sized model (dense-residual, width 96, depth 3) over 64 probes,
// into a catalog holding 16 to 31 of its perturbed variants, so each
// insert observes only itself and compares against its sampled
// partners' stored evidence. The catalog is rebuilt, untimed, every 16
// inserts so the commit's share stays that of a small catalog. At
// Workers 2 the observation's sweep and bound factor run side by side;
// at Workers 1 one after the other.
func BenchmarkIndexOne(b *testing.B) {
	base, err := zoo.DenseResidualNet(zoo.Config{Name: "one", Seed: 1, Width: 96, Depth: 3})
	if err != nil {
		b.Fatal(err)
	}
	variants := make([]index.Entry, 32)
	for i := range variants {
		name := fmt.Sprintf("one-v%d", i)
		variants[i] = index.Entry{ID: name + "@v1", Model: zoo.Perturb(base, name, 0.01+0.001*float64(i), uint64(i+1))}
	}
	partners, inserts := variants[:16], variants[16:]
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var c *Catalog
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%len(inserts) == 0 {
					b.StopTimer()
					c = New(Config{Seed: 7, ValidationSize: 64, Workers: workers})
					if n, err := c.IndexBatch(context.Background(), partners); err != nil || n != len(partners) {
						b.Fatalf("IndexBatch = %d, %v", n, err)
					}
					b.StartTimer()
				}
				e := inserts[i%len(inserts)]
				if err := c.Index(context.Background(), e.ID, e.Model); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
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
				footprints := make(map[string]resource.Footprint, n)
				for i := 0; i < n; i++ {
					e := index.SemanticEntrySnapshot{ID: fmt.Sprintf("m%d@v1", i)}
					for j := 1; j <= l; j++ {
						e.Candidates = append(e.Candidates, index.Candidate{
							ID: fmt.Sprintf("m%d@v1", (i+j)%n), Level: 1 - float64(j)/float64(l+1),
						})
					}
					sem.Entries = append(sem.Entries, e)
					footprints[e.ID] = resource.Footprint{FLOPs: int64(i + 1), ParamBytes: int64(i + 1), PeakActivation: 1, LatencyNS: 1e6}
				}
				c := New(Config{Seed: 7, ValidationSize: 4, Workers: 1, Analyzer: tenthAnalyzer{}})
				if err := c.Restore(sem, index.ResourceSnapshot{Footprints: footprints}, nil, resolve); err != nil {
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
