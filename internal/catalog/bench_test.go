package catalog

import (
	"context"
	"fmt"
	"testing"

	"sommelier/internal/index"
	"sommelier/internal/obs"
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
