package index

import (
	"fmt"
	"testing"

	"sommelier/internal/resource"
	"sommelier/internal/tensor"
)

func benchResourceIndex(b *testing.B, n int) *ResourceIndex {
	b.Helper()
	rng := tensor.NewRNG(uint64(n))
	ri := NewResourceIndex(1)
	for i := 0; i < n; i++ {
		p := resource.Profile{
			FLOPs:       int64(1e6 + rng.Float64()*1e10),
			MemoryBytes: int64(1e5 + rng.Float64()*1e9),
			LatencyMS:   0.1 + rng.Float64()*100,
		}
		if err := ri.Insert(fmt.Sprintf("m%d", i), p); err != nil {
			b.Fatal(err)
		}
	}
	return ri
}

func BenchmarkResourceInsert(b *testing.B) {
	rng := tensor.NewRNG(9)
	ri := NewResourceIndex(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := resource.Profile{
			FLOPs:       int64(rng.Float64() * 1e10),
			MemoryBytes: int64(rng.Float64() * 1e9),
			LatencyMS:   rng.Float64() * 100,
		}
		if err := ri.Insert(fmt.Sprintf("m%d", i), p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkResourceIndexCandidates10k(b *testing.B) {
	ri := benchResourceIndex(b, 10000)
	budget := Budget{MaxMemoryBytes: int64(5e8), MaxFLOPs: int64(5e9), MaxLatencyMS: 50}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ri.Candidates(budget, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSemanticLookup10k(b *testing.B) {
	si := NewSemanticIndex(3)
	si.SampleSize = 0
	if err := si.Insert(Entry{ID: "ref", Model: tinyModel(b, 1)}, &stubAnalyzer{tag: map[string]float64{}}); err != nil {
		b.Fatal(err)
	}
	rng := tensor.NewRNG(4)
	cands := make([]Candidate, 10000)
	for i := range cands {
		cands[i] = Candidate{ID: fmt.Sprintf("m%d", i), Level: rng.Float64()}
	}
	if err := si.InsertPrecomputed("ref", cands); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := si.Lookup("ref", 0.99); err != nil {
			b.Fatal(err)
		}
	}
}
