package sommelier

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"sommelier/internal/dataset"
	"sommelier/internal/equiv"
	"sommelier/internal/graph"
	"sommelier/internal/query"
	"sommelier/internal/repo"
	"sommelier/internal/resource"
	"sommelier/internal/tensor"
	"sommelier/internal/zoo"
)

// newEngineWithLadder builds an engine over a base model plus calibrated
// variants at known distances and inflated (larger) siblings.
func newEngineWithLadder(t testing.TB, segments bool) (*Engine, string, []string) {
	t.Helper()
	store := repo.NewInMemory()
	eng, err := NewEngine(store, WithSeed(11), WithValidationSize(250), WithSegments(segments))
	if err != nil {
		t.Fatal(err)
	}
	base, err := zoo.DenseResidualNet(zoo.Config{Name: "refnet", Seed: 1, Width: 32, Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	refID, err := eng.RegisterContext(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	probes := dataset.RandomImages(300, base.InputShape, 42)
	var ids []string
	for i, target := range []float64{0.03, 0.08, 0.2} {
		v, _, err := zoo.CalibratedVariant(base, "variant"+itoa(i), target, probes, uint64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		id, err := eng.RegisterContext(context.Background(), v)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// One larger sibling: nearly same function, much bigger profile.
	big, err := zoo.Inflate(base, "bignet", 32, 96, 5)
	if err != nil {
		t.Fatal(err)
	}
	bigID, err := eng.RegisterContext(context.Background(), big)
	if err != nil {
		t.Fatal(err)
	}
	ids = append(ids, bigID)
	return eng, refID, ids
}

func itoa(n int) string { return string(rune('0' + n)) }

func TestEngineRegisterAndIndex(t *testing.T) {
	eng, refID, ids := newEngineWithLadder(t, false)
	if eng.IndexedLen() != 5 {
		t.Fatalf("IndexedLen = %d", eng.IndexedLen())
	}
	if refID != "refnet@1" {
		t.Fatalf("refID = %q", refID)
	}
	res, err := eng.TopEquivalents(refID, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("TopEquivalents = %d", len(res))
	}
	// The near-identical variant should outrank the distant one.
	rank := map[string]int{}
	for i, r := range res {
		rank[r.ID] = i
	}
	if rank[ids[0]] > rank[ids[2]] {
		t.Fatalf("ranking wrong: %+v", res)
	}
}

func TestEngineQueryPipeline(t *testing.T) {
	eng, refID, _ := newEngineWithLadder(t, false)
	// High threshold, memory within 120% of ref: excludes the distant
	// variant and the inflated big model.
	results, err := eng.QueryContext(context.Background(), `SELECT CORR "`+refID+`" WITHIN 85% ON memory <= 120% PICK most_similar`)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no results")
	}
	for _, r := range results {
		if r.Level < 0.85 {
			t.Fatalf("result below threshold: %+v", r)
		}
		if r.ID == "bignet@1" {
			t.Fatal("memory constraint leaked the big model")
		}
	}
	// Levels descending under most_similar.
	for i := 1; i < len(results); i++ {
		if results[i].Level > results[i-1].Level {
			t.Fatal("most_similar not sorted by level")
		}
	}
}

func TestEngineQueryPickSmallest(t *testing.T) {
	eng, refID, _ := newEngineWithLadder(t, false)
	results, err := eng.QueryContext(context.Background(), `SELECT CORR "`+refID+`" WITHIN 50% PICK smallest`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(results); i++ {
		if results[i].Profile.MemoryBytes < results[i-1].Profile.MemoryBytes {
			t.Fatal("smallest not sorted by memory")
		}
	}
}

func TestEngineQueryLimit(t *testing.T) {
	eng, refID, _ := newEngineWithLadder(t, false)
	results, err := eng.QueryContext(context.Background(), `SELECT CORR "`+refID+`" WITHIN 10% PICK most_similar LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) > 2 {
		t.Fatalf("limit ignored: %d results", len(results))
	}
}

func TestEngineQueryLowerBoundConstraint(t *testing.T) {
	eng, refID, _ := newEngineWithLadder(t, false)
	// Require MORE memory than the reference: only the inflated model.
	results, err := eng.QueryContext(context.Background(), `SELECT CORR "`+refID+`" WITHIN 50% ON memory >= 150% PICK most_similar`)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].ID != "bignet@1" {
		t.Fatalf("lower-bound query = %+v", results)
	}
}

func TestEngineQueryTaskDefaultReference(t *testing.T) {
	eng, refID, _ := newEngineWithLadder(t, false)
	// The first registered classification model is the default ref.
	results, err := eng.QueryContext(context.Background(), `SELECT TASK classification WITHIN 50% PICK most_similar`)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("task query found nothing")
	}
	if err := eng.SetDefaultReference("classification", results[0].ID); err != nil {
		t.Fatal(err)
	}
	if err := eng.SetDefaultReference("classification", "ghost@1"); err == nil {
		t.Fatal("expected error for unknown default reference")
	}
	_ = refID
}

func TestEngineQueryErrors(t *testing.T) {
	eng, _, _ := newEngineWithLadder(t, false)
	if _, err := eng.QueryContext(context.Background(), `garbage`); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := eng.QueryContext(context.Background(), `SELECT CORR ghost@9`); err == nil {
		t.Fatal("expected unknown-reference error")
	}
	if _, err := eng.QueryContext(context.Background(), `SELECT TASK regression`); err == nil {
		t.Fatal("expected no-default-reference error")
	}
}

func TestEngineQueryAbsoluteConstraint(t *testing.T) {
	eng, refID, _ := newEngineWithLadder(t, false)
	refProf, _ := eng.Profile(refID)
	mb := float64(refProf.MemoryBytes) / (1 << 20)
	q := &query.Query{
		Ref:       refID,
		Threshold: 0.5,
		Constraints: []query.Constraint{{
			Metric: query.MetricMemory, Op: query.OpLE,
			Value: mb * 1.1, Unit: query.UnitMB,
		}},
		Pick: query.PickMostSimilar,
	}
	results, err := eng.QueryASTContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if float64(r.Profile.MemoryBytes) > mb*1.1*(1<<20) {
			t.Fatalf("absolute constraint leaked %+v", r)
		}
	}
}

func TestEngineSegmentsProduceSynthesizedCandidates(t *testing.T) {
	store := repo.NewInMemory()
	eng, err := NewEngine(store,
		WithSeed(3), WithValidationSize(150), WithSegments(true), WithSegmentMinLen(3))
	if err != nil {
		t.Fatal(err)
	}
	base, err := zoo.DenseResidualNet(zoo.Config{Name: "segbase", Seed: 7, Width: 24, Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A transfer variant sharing the frozen trunk.
	variant, err := zoo.Transfer(base, "segvariant", 8, 99, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	refID, err := eng.RegisterContext(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RegisterContext(context.Background(), variant); err != nil {
		t.Fatal(err)
	}
	res, err := eng.TopEquivalents(refID, 10)
	if err != nil {
		t.Fatal(err)
	}
	var synth *Result
	for i := range res {
		if res[i].Synthesized {
			synth = &res[i]
			break
		}
	}
	if synth == nil {
		t.Fatalf("no synthesized candidate found in %+v", res)
	}
	if synth.DonorID != "segvariant@1" || synth.Segment == "" {
		t.Fatalf("synthesized candidate malformed: %+v", synth)
	}

	// Materialize must produce a valid runnable model.
	m, err := eng.Materialize(*synth)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m.Name, "seg") {
		t.Fatalf("materialized name %q", m.Name)
	}
}

func TestEngineMaterializeWhole(t *testing.T) {
	eng, refID, ids := newEngineWithLadder(t, false)
	m, err := eng.Materialize(Result{ID: ids[0]})
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "variant0" {
		t.Fatalf("materialized %q", m.Name)
	}
	_ = refID
}

func TestEngineIndexAllFromRepository(t *testing.T) {
	store := repo.NewInMemory()
	for i := 0; i < 3; i++ {
		m, err := zoo.MobileNetish(zoo.Config{Name: "pre" + itoa(i), Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := store.Publish(m); err != nil {
			t.Fatal(err)
		}
	}
	eng, err := NewEngine(store, WithSeed(5), WithValidationSize(100))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.IndexAllContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if eng.IndexedLen() != 3 {
		t.Fatalf("IndexedLen = %d", eng.IndexedLen())
	}
	// Idempotent.
	if err := eng.IndexAllContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if eng.IndexedLen() != 3 {
		t.Fatal("IndexAll re-indexed models")
	}
}

func TestEngineIndexMemoryBytes(t *testing.T) {
	eng, _, _ := newEngineWithLadder(t, false)
	sem, res := eng.IndexMemoryBytes()
	if sem <= 0 || res <= 0 {
		t.Fatalf("index memory = %d, %d", sem, res)
	}
}

func TestEngineDeterministicAcrossRuns(t *testing.T) {
	run := func() []Result {
		eng, refID, _ := newEngineWithLadder(t, false)
		rs, err := eng.QueryContext(context.Background(), `SELECT CORR "`+refID+`" WITHIN 50% PICK most_similar`)
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("run sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Level != b[i].Level {
			t.Fatalf("nondeterministic results at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestEngineNilRepository(t *testing.T) {
	if _, err := NewEngine(nil); err == nil {
		t.Fatal("expected nil-repository error")
	}
}

func TestExactlySatisfiesOperators(t *testing.T) {
	ref := resource.Profile{MemoryBytes: 1000, FLOPs: 1000, LatencyMS: 10}
	p := resource.Profile{MemoryBytes: 500, FLOPs: 800, LatencyMS: 5}
	cs := []query.Constraint{
		{Metric: query.MetricMemory, Op: query.OpLT, Value: 60, Unit: query.UnitRelative},
		{Metric: query.MetricFLOPs, Op: query.OpGE, Value: 50, Unit: query.UnitRelative},
	}
	mustSatisfy := func(cs []query.Constraint) bool {
		t.Helper()
		for _, c := range cs {
			keep, err := satisfies(c, p, ref)
			if err != nil {
				t.Fatal(err)
			}
			if !keep {
				return false
			}
		}
		return true
	}
	if !mustSatisfy(cs) {
		t.Fatal("satisfying profile rejected")
	}
	cs[0].Value = 40
	if mustSatisfy(cs) {
		t.Fatal("violating profile accepted")
	}
	eq := []query.Constraint{{Metric: query.MetricLatency, Op: query.OpEQ, Value: 50, Unit: query.UnitRelative}}
	if !mustSatisfy(eq) {
		t.Fatal("equality within band rejected")
	}
	eq[0].Value = 80
	if mustSatisfy(eq) {
		t.Fatal("equality outside band accepted")
	}
}

func TestEquivOptionsExposedThroughEngine(t *testing.T) {
	// BoundOff engines must produce levels >= BoundOn engines for the
	// same pair (the bound only subtracts).
	mkEngine := func(mode equiv.BoundMode) float64 {
		store := repo.NewInMemory()
		eng, err := NewEngine(store, WithSeed(9), WithValidationSize(200), WithBound(mode))
		if err != nil {
			t.Fatal(err)
		}
		base, err := zoo.DenseResidualNet(zoo.Config{Name: "b", Seed: 2, Width: 24})
		if err != nil {
			t.Fatal(err)
		}
		refID, err := eng.RegisterContext(context.Background(), base)
		if err != nil {
			t.Fatal(err)
		}
		v := zoo.Perturb(base, "v", 0.02, 3)
		if _, err := eng.RegisterContext(context.Background(), v); err != nil {
			t.Fatal(err)
		}
		res, err := eng.TopEquivalents(refID, 1)
		if err != nil || len(res) != 1 {
			t.Fatalf("top: %v %d", err, len(res))
		}
		return res[0].Level
	}
	on := mkEngine(equiv.BoundOn)
	off := mkEngine(equiv.BoundOff)
	if on >= off {
		t.Fatalf("bound-on level %g should be below bound-off %g", on, off)
	}
}

func TestValidationForCustomDataset(t *testing.T) {
	store := repo.NewInMemory()
	custom := &dataset.Dataset{
		Name:   "custom",
		Inputs: dataset.RandomImages(50, tensor.Shape{16}, 99),
	}
	eng, err := NewEngine(store, WithSeed(1), WithCustomValidation(custom))
	if err != nil {
		t.Fatal(err)
	}
	// The probe-dataset selection itself is covered in internal/catalog;
	// here we check the option flows through the engine: registration
	// and analysis of shape-matching models still work end to end.
	m, err := zoo.DenseResidualNet(zoo.Config{Name: "cv", Seed: 4, InDim: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RegisterContext(context.Background(), m); err != nil {
		t.Fatal(err)
	}
	m2, err := zoo.DenseResidualNet(zoo.Config{Name: "cv2", Seed: 6, InDim: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RegisterContext(context.Background(), m2); err != nil {
		t.Fatal(err)
	}
	if eng.IndexedLen() != 2 {
		t.Fatalf("indexed %d models, want 2", eng.IndexedLen())
	}
	_ = graph.TaskClassification
}

func TestEngineExecSpecReprofiles(t *testing.T) {
	eng, refID, _ := newEngineWithLadder(t, false)
	// Batch-32 fp32 raises activation memory; a tight relative budget
	// that passes at batch 1 can fail at batch 32, and vice versa a
	// query with EXEC must still return a consistent, non-empty set at
	// a loose budget.
	base, err := eng.QueryContext(context.Background(), `SELECT CORR "`+refID+`" WITHIN 50% ON memory <= 200% PICK most_similar`)
	if err != nil {
		t.Fatal(err)
	}
	withExec, err := eng.QueryContext(context.Background(), `SELECT CORR "`+refID+`" WITHIN 50% ON memory <= 200% EXEC batch=32 PICK most_similar`)
	if err != nil {
		t.Fatal(err)
	}
	if len(withExec) == 0 {
		t.Fatal("exec-spec query returned nothing at a loose budget")
	}
	// Profiles under the exec spec must differ from the defaults.
	var defMem, execMem int64
	for _, r := range base {
		if r.ID == withExec[0].ID {
			defMem = r.Profile.MemoryBytes
		}
	}
	execMem = withExec[0].Profile.MemoryBytes
	if defMem == 0 || execMem <= defMem {
		t.Fatalf("exec-spec did not re-profile: default %d vs exec %d", defMem, execMem)
	}
	// Invalid EXEC values fail loudly.
	if _, err := eng.QueryContext(context.Background(), `SELECT CORR "`+refID+`" EXEC batch=zero`); err == nil {
		t.Fatal("expected bad-batch error")
	}
	if _, err := eng.QueryContext(context.Background(), `SELECT CORR "`+refID+`" EXEC precision=fp8`); err == nil {
		t.Fatal("expected bad-precision error")
	}
}

// TestExecHugeSettingSaturatesMemory: an EXEC setting whose memory
// figure leaves int64 — the activation term of a 2⁶¹ batch, or an
// overhead of 10¹⁵ — reports math.MaxInt64 for every model, so it fails
// every finite memory budget instead of wrapping into a small (batch
// 2⁶¹ read 21,134 B against batch 1's 21,537) or negative (bignet@1 as
// the "smallest" model under 1 MB) figure.
func TestExecHugeSettingSaturatesMemory(t *testing.T) {
	eng, refID := newLadderOverStore(t, repo.NewInMemory())
	ctx := context.Background()
	huge, err := eng.QueryContext(ctx, fmt.Sprintf(`SELECT CORR %q WITHIN 0%% EXEC batch=2305843009213693952 PICK smallest`, refID))
	if err != nil {
		t.Fatal(err)
	}
	if len(huge) == 0 {
		t.Fatal("no results without a budget")
	}
	for _, r := range huge {
		if r.Profile.MemoryBytes != math.MaxInt64 {
			t.Errorf("%s at batch 2^61: MemoryBytes %d, want %d", r.ID, r.Profile.MemoryBytes, int64(math.MaxInt64))
		}
	}
	for _, q := range []string{
		`SELECT CORR %q WITHIN 0%% ON memory <= 1 GB EXEC batch=2305843009213693952 PICK smallest`,
		`SELECT CORR %q WITHIN 0%% ON memory <= 1MB EXEC overhead=1000000000000000 PICK smallest`,
	} {
		got, err := eng.QueryContext(ctx, fmt.Sprintf(q, refID))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 {
			t.Errorf("%s: %d models pass the budget, first %s with MemoryBytes %d",
				fmt.Sprintf(q, refID), len(got), got[0].ID, got[0].Profile.MemoryBytes)
		}
	}
}

func TestRegisterAnnotated(t *testing.T) {
	eng, refID, _ := newEngineWithLadder(t, false)
	m, err := eng.Store().Load(refID)
	if err != nil {
		t.Fatal(err)
	}
	annotated := m.Clone()
	annotated.Name = "annotated"
	id, err := eng.RegisterAnnotatedContext(context.Background(), annotated, map[string]float64{refID: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	// The declared level appears in both directions and wins over the
	// measured one if higher.
	top, err := eng.TopEquivalents(refID, 1)
	if err != nil {
		t.Fatal(err)
	}
	if top[0].ID != id || top[0].Level != 0.99 {
		t.Fatalf("annotation not applied: %+v", top[0])
	}
	own, err := eng.TopEquivalents(id, 1)
	if err != nil {
		t.Fatal(err)
	}
	if own[0].ID != refID || own[0].Level != 0.99 {
		t.Fatalf("reverse annotation missing: %+v", own[0])
	}
	// The annotation replaces the measurement it raises: every answer
	// names each model once, in both directions.
	for _, from := range []string{refID, id} {
		q := fmt.Sprintf("SELECT CORR %q WITHIN 0%%", from)
		res, err := eng.QueryContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, r := range res {
			if seen[r.ID] {
				t.Errorf("%s answers %s twice: %+v", q, r.ID, res)
			}
			seen[r.ID] = true
		}
		if other := map[string]string{refID: id, id: refID}[from]; !seen[other] {
			t.Errorf("%s does not answer %s: %+v", q, other, res)
		}
	}
	// Invalid annotations fail loudly.
	bad := m.Clone()
	bad.Name = "bad-level"
	if _, err := eng.RegisterAnnotatedContext(context.Background(), bad, map[string]float64{refID: 1.5}); err == nil {
		t.Fatal("expected range error")
	}
	bad2 := m.Clone()
	bad2.Name = "bad-target"
	if _, err := eng.RegisterAnnotatedContext(context.Background(), bad2, map[string]float64{"ghost@1": 0.5}); err == nil {
		t.Fatal("expected unindexed-target error")
	}
}
