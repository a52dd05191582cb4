package index

import (
	"fmt"
	"maps"
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

// commitBenchIndex returns an index of n near-identical variants: every
// model lists every other, at levels that fall off slowly with the
// distance between their positions, so a new variant is derived to all
// of them and every list a commit touches is n long — insertSorted's
// worst case. It is built directly, as n commits would cost O(n³).
func commitBenchIndex(n int) *SemanticIndex {
	idx := NewSemanticIndex(1)
	v := idx.SemanticVersion
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("v%04d", i)
		v.order = append(v.order, id)
		idx.entries[id] = Entry{ID: id}
	}
	for i, id := range v.order {
		list := make([]Candidate, 0, n-1)
		for d := 1; d < n; d++ {
			for _, j := range []int{i - d, i + d} {
				if j >= 0 && j < n {
					list = append(list, Candidate{ID: v.order[j], Level: 0.99 - 1e-4*float64(d), Kind: KindWhole})
				}
			}
		}
		v.lists[id] = list
	}
	return idx
}

// BenchmarkCommitPlanned times one CommitPlanned into an index of n
// near-identical variants (commitBenchIndex): recording the sampled
// partners' measurements and deriving the new variant's level to every
// other model through their lists. Each op commits into the same n-model
// index; restoring it, planning and measuring sit outside the timer.
func BenchmarkCommitPlanned(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			idx := commitBenchIndex(n)
			base := *idx.SemanticVersion
			e := Entry{ID: "new", Model: tinyModel(b, 1)}
			res := AnalysisResult{LevelForRef: 0.99, LevelForCand: 0.99}
			b.ReportAllocs()
			b.ResetTimer()
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				idx.SemanticVersion = &SemanticVersion{
					order: append(make([]string, 0, n+1), base.order...),
					lists: maps.Clone(base.lists),
				}
				delete(idx.entries, e.ID)
				var meas []PairMeasurement
				for _, p := range idx.PlanInserts([]Entry{e})[0].Partners {
					meas = append(meas, PairMeasurement{Partner: p, Result: res})
				}
				b.StartTimer()
				if err := idx.CommitPlanned(e, meas); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
			}
			if got, _ := idx.Lookup(e.ID, 0); len(got) != n {
				b.Fatalf("the new variant lists %d models, want %d", len(got), n)
			}
		})
	}
}
