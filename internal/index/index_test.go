package index

import (
	"fmt"
	"reflect"
	"testing"

	"sommelier/internal/graph"
	"sommelier/internal/resource"
	"sommelier/internal/tensor"
)

// stubAnalyzer scores pairs by the absolute difference of a per-model
// numeric tag, mimicking controllable functional distance.
type stubAnalyzer struct {
	tag map[string]float64
	// calls counts Analyze invocations, to verify sampling.
	calls int
}

func (s *stubAnalyzer) Analyze(ref, cand Entry) (AnalysisResult, error) {
	s.calls++
	diff := s.tag[ref.ID] - s.tag[cand.ID]
	if diff < 0 {
		diff = -diff
	}
	lvl := 1 - diff
	if lvl < 0 {
		lvl = 0
	}
	return AnalysisResult{LevelForRef: lvl, LevelForCand: lvl}, nil
}

func tinyModel(t testing.TB, seed uint64) *graph.Model {
	t.Helper()
	b := graph.NewBuilder(fmt.Sprintf("m%d", seed), graph.TaskClassification, tensor.Shape{4}, tensor.NewRNG(seed))
	b.Dense(4)
	b.Softmax()
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSemanticInsertAndLookup(t *testing.T) {
	idx := NewSemanticIndex(1)
	an := &stubAnalyzer{tag: map[string]float64{"a": 0.0, "b": 0.05, "c": 0.5}}
	for i, id := range []string{"a", "b", "c"} {
		if err := idx.Insert(Entry{ID: id, Model: tinyModel(t, uint64(i+1))}, an); err != nil {
			t.Fatal(err)
		}
	}
	if idx.Len() != 3 {
		t.Fatalf("Len = %d", idx.Len())
	}
	cands, err := idx.Lookup("a", 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 || cands[0].ID != "b" {
		t.Fatalf("Lookup(a, 0.9) = %+v", cands)
	}
	all, err := idx.Lookup("a", 0.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Fatalf("Lookup(a, 0) = %+v", all)
	}
	// Descending order.
	if all[0].Level < all[1].Level {
		t.Fatal("candidate list not descending")
	}
}

func TestSemanticLookupUnknown(t *testing.T) {
	idx := NewSemanticIndex(1)
	if _, err := idx.Lookup("ghost", 0); err == nil {
		t.Fatal("expected error for unknown reference")
	}
}

func TestSemanticDuplicateInsert(t *testing.T) {
	idx := NewSemanticIndex(1)
	an := &stubAnalyzer{tag: map[string]float64{"a": 0}}
	m := tinyModel(t, 1)
	if err := idx.Insert(Entry{ID: "a", Model: m}, an); err != nil {
		t.Fatal(err)
	}
	if err := idx.Insert(Entry{ID: "a", Model: m}, an); err == nil {
		t.Fatal("expected duplicate error")
	}
	if err := idx.Insert(Entry{ID: "", Model: m}, an); err == nil {
		t.Fatal("expected empty-ID error")
	}
}

func TestSemanticSamplingBoundsAnalyzerCalls(t *testing.T) {
	idx := NewSemanticIndex(7)
	tags := make(map[string]float64)
	an := &stubAnalyzer{tag: tags}
	for i := 0; i < 30; i++ {
		id := fmt.Sprintf("m%d", i)
		tags[id] = float64(i) / 100
		if err := idx.Insert(Entry{ID: id, Model: tinyModel(t, uint64(i+1))}, an); err != nil {
			t.Fatal(err)
		}
	}
	// With SampleSize 5, insert i makes min(i, 5) calls: 0+1+2+3+4 + 25*5.
	want := 0 + 1 + 2 + 3 + 4 + 25*5
	if an.calls != want {
		t.Fatalf("analyzer calls = %d, want %d", an.calls, want)
	}
	// Despite sampling, every model should still see most others via
	// transitive derivation.
	cands, err := idx.Lookup("m0", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) < 20 {
		t.Fatalf("transitive derivation too sparse: %d candidates", len(cands))
	}
}

func TestSemanticTransitiveLevelsAreConservative(t *testing.T) {
	idx := NewSemanticIndex(3)
	tags := map[string]float64{}
	an := &stubAnalyzer{tag: tags}
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("m%d", i)
		tags[id] = float64(i) * 0.01
		if err := idx.Insert(Entry{ID: id, Model: tinyModel(t, uint64(i+1))}, an); err != nil {
			t.Fatal(err)
		}
	}
	cands, err := idx.Lookup("m19", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		trueLvl := 1 - (tags["m19"] - tags[c.ID])
		if tags[c.ID] > tags["m19"] {
			trueLvl = 1 - (tags[c.ID] - tags["m19"])
		}
		if !c.Derived {
			if diff := c.Level - trueLvl; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("measured level for %s = %g, want %g", c.ID, c.Level, trueLvl)
			}
			continue
		}
		// Derived levels use the triangle upper bound on the diff, so
		// they must never overstate equivalence.
		if c.Level > trueLvl+1e-9 {
			t.Fatalf("derived level for %s = %g exceeds true %g", c.ID, c.Level, trueLvl)
		}
	}
}

func TestSemanticTopK(t *testing.T) {
	idx := NewSemanticIndex(1)
	an := &stubAnalyzer{tag: map[string]float64{"a": 0, "b": 0.1, "c": 0.2, "d": 0.9}}
	for i, id := range []string{"a", "b", "c", "d"} {
		if err := idx.Insert(Entry{ID: id, Model: tinyModel(t, uint64(i+1))}, an); err != nil {
			t.Fatal(err)
		}
	}
	top, err := idx.TopK("a", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 || top[0].ID != "b" || top[1].ID != "c" {
		t.Fatalf("TopK = %+v", top)
	}
	all, _ := idx.TopK("a", 100)
	if len(all) != 3 {
		t.Fatalf("TopK over-capacity = %d", len(all))
	}
}

func TestInsertSortedReplacesSameKey(t *testing.T) {
	list := insertSorted(nil, Candidate{ID: "x", Level: 0.5})
	list = insertSorted(list, Candidate{ID: "x", Level: 0.8})
	if len(list) != 1 || list[0].Level != 0.8 {
		t.Fatalf("replace failed: %+v", list)
	}
	list = insertSorted(list, Candidate{ID: "x", Level: 0.3})
	if len(list) != 1 || list[0].Level != 0.8 {
		t.Fatalf("lower level should not replace: %+v", list)
	}
	list = insertSorted(list, Candidate{ID: "x", Level: 0.9, Kind: KindSynthesized, Segment: "s"})
	if len(list) != 2 {
		t.Fatalf("different kind should coexist: %+v", list)
	}
}

// TestSortedOnceEqualsInsertSorted: the new model's own list is sorted
// once at commit; that must be the list record-by-record insertion
// builds, ties, repeated keys and replacements included.
func TestSortedOnceEqualsInsertSorted(t *testing.T) {
	if got := sortedOnce(nil); got != nil {
		t.Fatalf("sortedOnce(nil) = %#v, want nil", got)
	}
	rng := tensor.NewRNG(11)
	for round := 0; round < 200; round++ {
		recs := make([]Candidate, 1+rng.Intn(40))
		for i := range recs {
			// Few IDs, levels and segments, so keys and levels collide.
			recs[i] = Candidate{ID: fmt.Sprintf("m%d", rng.Intn(8)), Level: float64(1+rng.Intn(5)) / 5, Derived: rng.Intn(2) == 0}
			if rng.Intn(3) == 0 {
				recs[i].Kind, recs[i].Segment, recs[i].DonorID = KindSynthesized, fmt.Sprintf("s%d", rng.Intn(2)), "d"
			}
		}
		var want []Candidate
		for _, c := range recs {
			want = insertSorted(want, c)
		}
		if got := sortedOnce(recs); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d:\n got %+v\nwant %+v", round, got, want)
		}
	}
}

// TestInsertPrecomputedKeepsOneRecordPerKey: an annotation that raises
// a record replaces it, one that raises nothing leaves the list — its
// very array, which published versions share — as it was.
func TestInsertPrecomputedKeepsOneRecordPerKey(t *testing.T) {
	idx := NewSemanticIndex(1)
	an := &stubAnalyzer{tag: map[string]float64{"a": 0, "b": 0.2, "c": 0.4}}
	for i, id := range []string{"a", "b", "c"} {
		if err := idx.Insert(Entry{ID: id, Model: tinyModel(t, uint64(i+1))}, an); err != nil {
			t.Fatal(err)
		}
	}
	before := idx.Version()
	list, _ := before.Lookup("a", 0)
	if err := idx.InsertPrecomputed("a", []Candidate{{ID: "b", Level: 0.5, Kind: KindWhole}}); err != nil {
		t.Fatal(err)
	}
	if got, _ := idx.Lookup("a", 0); &got[0] != &list[0] || !reflect.DeepEqual(got, list) {
		t.Fatalf("an annotation below the measured level changed the list: %+v, was %+v", got, list)
	}
	if err := idx.InsertPrecomputed("a", []Candidate{{ID: "c", Level: 0.95, Kind: KindWhole}}); err != nil {
		t.Fatal(err)
	}
	got, _ := idx.Lookup("a", 0)
	want := []Candidate{{ID: "c", Level: 0.95, Kind: KindWhole}, {ID: "b", Level: 0.8, Kind: KindWhole}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after raising c: %+v, want %+v", got, want)
	}
	if old, _ := before.Lookup("a", 0); !reflect.DeepEqual(old, list) {
		t.Fatalf("the published version changed: %+v, was %+v", old, list)
	}
}

// TestAnnotatedLevelFeedsDerivation: a level an annotation raised is
// the one later insertions derive through, as the list answers it.
func TestAnnotatedLevelFeedsDerivation(t *testing.T) {
	an := &stubAnalyzer{tag: map[string]float64{"a": 0, "b": 0.3, "c": 0.1}}
	idx := NewSemanticIndex(5)
	idx.SampleSize = 1
	for i, id := range []string{"a", "b"} {
		if err := idx.Insert(Entry{ID: id, Model: tinyModel(t, uint64(i+1))}, an); err != nil {
			t.Fatal(err)
		}
	}
	const annotated = 0.95 // measured: 0.7
	for _, p := range [][2]string{{"a", "b"}, {"b", "a"}} {
		if err := idx.InsertPrecomputed(p[0], []Candidate{{ID: p[1], Level: annotated, Kind: KindWhole}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := idx.Insert(Entry{ID: "c", Model: tinyModel(t, 3)}, an); err != nil {
		t.Fatal(err)
	}
	list, _ := idx.Lookup("c", 0)
	if len(list) != 2 || list[0].Derived == list[1].Derived {
		t.Fatalf("c's list = %+v, want one measured and one derived record", list)
	}
	measured, derived := list[0], list[1]
	if measured.Derived {
		measured, derived = derived, measured
	}
	res, _ := an.Analyze(Entry{ID: "c"}, Entry{ID: measured.ID})
	if want := 1 - ((1 - res.LevelForRef) + (1 - annotated)); derived.Level != want {
		t.Fatalf("derived %s at %v, want %v through the annotated level", derived.ID, derived.Level, want)
	}
}

func TestSemanticMemoryGrows(t *testing.T) {
	idx := NewSemanticIndex(1)
	tags := map[string]float64{}
	an := &stubAnalyzer{tag: tags}
	sizes := []int64{}
	for i := 0; i < 50; i++ {
		id := fmt.Sprintf("m%d", i)
		tags[id] = float64(i) * 0.001
		if err := idx.Insert(Entry{ID: id, Model: tinyModel(t, uint64(i+1))}, an); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, idx.MemoryBytes())
	}
	if sizes[49] <= sizes[0] {
		t.Fatal("memory estimate did not grow")
	}
}

func TestResourceIndexInsertAndBudget(t *testing.T) {
	ri := NewResourceIndex(2)
	profiles := map[string]resource.Profile{
		"small": {FLOPs: 1e6, MemoryBytes: 10 << 20, LatencyMS: 1},
		"mid":   {FLOPs: 1e8, MemoryBytes: 100 << 20, LatencyMS: 10},
		"big":   {FLOPs: 1e10, MemoryBytes: 1000 << 20, LatencyMS: 100},
	}
	for id, p := range profiles {
		if err := ri.Insert(id, p); err != nil {
			t.Fatal(err)
		}
	}
	if ri.Len() != 3 {
		t.Fatalf("Len = %d", ri.Len())
	}
	b := Budget{MaxMemoryBytes: 150 << 20, MaxFLOPs: 5e8, MaxLatencyMS: 50}
	got, err := ri.Candidates(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"small": true, "mid": true}
	if len(got) != 2 {
		t.Fatalf("Candidates = %v", got)
	}
	for _, id := range got {
		if !want[id] {
			t.Fatalf("unexpected candidate %q", id)
		}
	}
	exact := ri.CandidatesExact(b)
	if len(exact) != 2 {
		t.Fatalf("CandidatesExact = %v", exact)
	}
}

func TestBudgetUnconstrainedDims(t *testing.T) {
	b := Budget{MaxMemoryBytes: 100}
	if !b.Satisfies(resource.Profile{MemoryBytes: 50, FLOPs: 1e12, LatencyMS: 1e6}) {
		t.Fatal("unconstrained dimensions should not filter")
	}
	if b.Satisfies(resource.Profile{MemoryBytes: 200}) {
		t.Fatal("constrained dimension ignored")
	}
}

func TestResourceIndexFallbackFindsFeasible(t *testing.T) {
	// A single tiny model whose vector points away from the budget
	// vector: the LSH probe may miss it, but the exact fallback must
	// find it.
	ri := NewResourceIndex(3)
	if err := ri.Insert("tiny", resource.Profile{FLOPs: 1, MemoryBytes: 1, LatencyMS: 100}); err != nil {
		t.Fatal(err)
	}
	got, err := ri.Candidates(Budget{MaxMemoryBytes: 1 << 30, MaxLatencyMS: 1000}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "tiny" {
		t.Fatalf("fallback failed: %v", got)
	}
}

func TestResourceIndexErrors(t *testing.T) {
	ri := NewResourceIndex(4)
	if err := ri.Insert("", resource.Profile{}); err == nil {
		t.Fatal("expected empty-ID error")
	}
	if _, ok := ri.Profile("ghost"); ok {
		t.Fatal("unknown profile resolved")
	}
}

func TestResourceIndexMemoryGrows(t *testing.T) {
	ri := NewResourceIndex(5)
	base := ri.MemoryBytes()
	for i := 0; i < 100; i++ {
		ri.Insert(fmt.Sprintf("m%d", i), resource.Profile{FLOPs: int64(i), MemoryBytes: int64(i), LatencyMS: float64(i)})
	}
	if ri.MemoryBytes() <= base {
		t.Fatal("memory estimate did not grow")
	}
}
