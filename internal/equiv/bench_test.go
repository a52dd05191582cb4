package equiv

import (
	"fmt"
	"testing"

	"sommelier/internal/dataset"
	"sommelier/internal/zoo"
)

func BenchmarkCheckWhole(b *testing.B) {
	base, err := zoo.DenseResidualNet(zoo.Config{Name: "bw", Seed: 1, Width: 32, Depth: 2})
	if err != nil {
		b.Fatal(err)
	}
	cand := zoo.Perturb(base, "bw-v", 0.05, 2)
	val := &dataset.Dataset{
		Name:   "bench",
		Inputs: dataset.RandomImages(200, base.InputShape, 3),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CheckWhole(base, cand, val, Options{Epsilon: 0.1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObserve times one observation — the sweep over the validation
// set plus the bound factor — on a residual MLP at a width ladder and two
// validation-set sizes. Scratch is per block of probes, so B/op must not
// follow the probe count.
func BenchmarkObserve(b *testing.B) {
	for _, width := range []int{40, 128, 512} {
		m, err := zoo.DenseResidualNet(zoo.Config{Name: "obs", Seed: 11, InDim: width, Width: width, Depth: 2})
		if err != nil {
			b.Fatal(err)
		}
		for _, probes := range []int{64, 300} {
			val := &dataset.Dataset{Name: "bench", Inputs: dataset.RandomImages(probes, m.InputShape, 12)}
			b.Run(fmt.Sprintf("width=%d/probes=%d", width, probes), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Observe(m, val, Options{Epsilon: 1}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkGeneralizationBound(b *testing.B) {
	m, err := zoo.DenseResidualNet(zoo.Config{Name: "gb", Seed: 4, Width: 64, Depth: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GeneralizationBound(m, 1000, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCommonSegments(b *testing.B) {
	base, err := zoo.DenseResidualNet(zoo.Config{Name: "cs", Seed: 5, Width: 32, Depth: 3})
	if err != nil {
		b.Fatal(err)
	}
	variant, err := zoo.Transfer(base, "cs-v", 8, 99, 0, 6)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CommonSegments(base, variant, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAssessReplacement(b *testing.B) {
	base, err := zoo.DenseResidualNet(zoo.Config{Name: "ar", Seed: 7, Width: 24, Depth: 1})
	if err != nil {
		b.Fatal(err)
	}
	variant, err := zoo.Transfer(base, "ar-v", 8, 99, 0, 8)
	if err != nil {
		b.Fatal(err)
	}
	pairs, err := CommonSegments(base, variant, 3)
	if err != nil || len(pairs) == 0 {
		b.Fatalf("setup: %v (%d pairs)", err, len(pairs))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AssessReplacement(base, pairs, Options{Epsilon: 0.1, Seed: 9, ProbeCount: 8}); err != nil {
			b.Fatal(err)
		}
	}
}
