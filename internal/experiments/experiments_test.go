package experiments

import (
	"context"
	"strings"
	"testing"
)

// The tests here run each experiment at a reduced scale and assert the
// paper's qualitative shape — who wins, roughly by how much, and where
// the crossovers fall — not absolute numbers.

func TestFig3OffDiagonalExceedsDiagonal(t *testing.T) {
	cfg := DefaultFig3Config()
	cfg.Samples = 600
	res, err := RunFig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matrix) != cfg.Models {
		t.Fatalf("matrix size %d", len(res.Matrix))
	}
	if res.MinOffDiagonal() <= res.MaxDiagonal() {
		t.Fatalf("Figure 3 shape violated: min pair %.3f vs max acc %.3f",
			res.MinOffDiagonal(), res.MaxDiagonal())
	}
	rep := res.Report()
	if rep.ID != "fig3" || len(rep.Lines) < cfg.Models+1 {
		t.Fatalf("report malformed: %+v", rep)
	}
	if !strings.Contains(rep.String(), "fig3") {
		t.Fatal("report string missing ID")
	}
}

func TestFig3Validation(t *testing.T) {
	if _, err := RunFig3(Fig3Config{Models: 1}); err == nil {
		t.Fatal("expected error for one model")
	}
}

func TestFig9aHitRateShape(t *testing.T) {
	cfg := Fig9aConfig{
		Spreads:         []float64{0.04, 0.10},
		Bases:           4,
		VariantsPerBase: 6,
		ValidationSize:  800,
		Seed:            7,
	}
	res, err := RunFig9a(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.HitRates) != 2 {
		t.Fatalf("hit rates %v", res.HitRates)
	}
	// Wider spreads are easier: the 10% hit rate must dominate the 4%
	// one, the 10% rate must be high, and the 4% rate must be clearly
	// imperfect (near-identical candidates are essentially random).
	if res.HitRates[1] <= res.HitRates[0] {
		t.Fatalf("hit rates not ordered by spread: %v", res.HitRates)
	}
	if res.HitRates[1] < 0.75 {
		t.Fatalf("10%% spread hit rate too low: %v", res.HitRates)
	}
	if res.HitRates[0] > 0.95 {
		t.Fatalf("4%% spread hit rate implausibly perfect: %v", res.HitRates)
	}
	if res.Report().ID != "fig9a" {
		t.Fatal("report ID")
	}
}

func TestFig9bQueryBeatsManual(t *testing.T) {
	cfg := Fig9bConfig{Models: 10, ValidationSize: 200, Seed: 3}
	res, err := RunFig9b(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tasks) != 3 {
		t.Fatalf("tasks = %v", res.Tasks)
	}
	for i, task := range res.Tasks {
		if res.TimeRatio[i] < 5 {
			t.Fatalf("task %s: query only %.1fx faster than manual profiling", task, res.TimeRatio[i])
		}
		if res.LoCRatio[i] < 10 {
			t.Fatalf("task %s: LoC ratio %.1f", task, res.LoCRatio[i])
		}
	}
	if res.Report().ID != "fig9b" {
		t.Fatal("report ID")
	}
}

func TestFig9cTailLatencyShape(t *testing.T) {
	cfg := Fig9cConfig{Requests: 6000, Seed: 5}
	res, err := RunFig9c(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, scale, sw, comb := res.P90s()
	// Paper shape: switching cuts p90 by a large factor (~6x), far more
	// than scale-out alone (~1.5x); combined at least matches switching.
	if base/sw < 3 {
		t.Fatalf("switching win too small: base %.1f vs switching %.1f", base, sw)
	}
	if base/scale > base/sw {
		t.Fatalf("scale-out (%.1f) should not beat switching (%.1f)", scale, sw)
	}
	if comb > sw*1.1 {
		t.Fatalf("combined (%.1f) regressed vs switching (%.1f)", comb, sw)
	}
	// Accuracy cost of switching stays small (paper: 90th percentile
	// relative accuracy change 1.7-2.4%).
	if res.Comparison.Switching.MeanLevel < 0.9 {
		t.Fatalf("switching mean level %.3f", res.Comparison.Switching.MeanLevel)
	}
	if res.Report().ID != "fig9c" {
		t.Fatal("report ID")
	}
}

func TestFig10BoundIsReliableFloor(t *testing.T) {
	cfg := DefaultFig10Config()
	cfg.Samples = 300
	res, err := RunFig10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tasks) != 3 {
		t.Fatalf("tasks = %d", len(res.Tasks))
	}
	if !res.Sound(0.02) {
		t.Fatalf("bound exceeded actual: %+v", res)
	}
	for _, task := range res.Tasks {
		// With everything frozen, replacing the trunk with the original
		// is lossless: relative QoR near 1 for the tuned variant.
		if task.TunedQoR[0] < 0.95 {
			t.Fatalf("%s: fully frozen replacement lost accuracy: %v", task.Task, task.TunedQoR)
		}
		// Noisy (worst-case) fine-tuning must hurt at least as much as
		// normal fine-tuning at the least-frozen level.
		last := len(task.FreezeLevels) - 1
		if task.NoisyQoR[last] > task.TunedQoR[last]+0.02 {
			t.Fatalf("%s: noisy QoR above tuned: %v vs %v", task.Task, task.NoisyQoR, task.TunedQoR)
		}
	}
	if res.Report().ID != "fig10" {
		t.Fatal("report ID")
	}
}

func TestTable1BoundSafeAndTightens(t *testing.T) {
	cfg := Table1Config{Sizes: []int{100, 1000, 10000}, Repeats: 8, Seed: 9}
	res, err := RunTable1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Models) != 3 {
		t.Fatalf("models = %v", res.Models)
	}
	for _, m := range res.Models {
		cells := res.Cells[m]
		for i, c := range cells {
			if c.Bound > c.MinActual+1 {
				t.Fatalf("%s n=%d: bound %.1f above min actual %.1f", m, res.Sizes[i], c.Bound, c.MinActual)
			}
			if c.MinActual > c.AvgActual+1e-9 {
				t.Fatalf("%s: min above avg", m)
			}
		}
		// The bound tightens with n.
		if !(cells[0].Bound < cells[1].Bound && cells[1].Bound < cells[2].Bound) {
			t.Fatalf("%s: bound not tightening: %+v", m, cells)
		}
		// Paper: within 10 points of actual at n >= 1000.
		if cells[2].MinActual-cells[2].Bound > 15 {
			t.Fatalf("%s: bound too loose at 10k: %+v", m, cells[2])
		}
	}
	if res.Report().ID != "table1" {
		t.Fatal("report ID")
	}
}

func TestFig11SommelierVsModelDiff(t *testing.T) {
	cfg := DefaultFig11Config()
	cfg.Draws = 10
	cfg.Samples = 200
	res, err := RunFig11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Families) != 3 {
		t.Fatalf("families = %d", len(res.Families))
	}
	for _, f := range res.Families {
		// Both detect similarity (positive mean scores).
		if f.SommelierTesting.Mean <= 0.5 || f.ModelDiff.Mean <= 0 {
			t.Fatalf("%s: means %.3f / %.3f", f.Family, f.SommelierTesting.Mean, f.ModelDiff.Mean)
		}
		// ModelDiff's dataset dependence: measurable spread.
		mdSpread := f.ModelDiff.MaxV - f.ModelDiff.MinV
		if mdSpread <= 0 {
			t.Fatalf("%s: ModelDiff spread %.4f", f.Family, mdSpread)
		}
		// The bounded floor sits at or below every testing score.
		if f.BoundedFloor > f.SommelierTesting.MinV+1e-9 {
			t.Fatalf("%s: floor %.3f above min testing %.3f", f.Family, f.BoundedFloor, f.SommelierTesting.MinV)
		}
	}
	if res.Report().ID != "fig11" {
		t.Fatal("report ID")
	}
}

func TestFig12aMemoryVariesAcrossSettings(t *testing.T) {
	cfg := Fig12aConfig{Widths: []int{32, 64}, Seed: 4}
	res, err := RunFig12a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.Variation {
		// Paper: settings swing memory by ~25%.
		if v < 0.15 {
			t.Fatalf("model %s: variation only %.0f%%", res.Models[i], v*100)
		}
	}
	if res.Report().ID != "fig12a" {
		t.Fatal("report ID")
	}
}

func TestFig12bCrossSeriesWins(t *testing.T) {
	res, err := RunFig12b(context.Background(), DefaultFig12bConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) == 0 {
		t.Fatal("no candidates at 1/8 size")
	}
	if res.BestSeries != "efficientish" {
		t.Fatalf("best series = %q, want the cross-series EfficientNet-like winner\n%+v",
			res.BestSeries, res.Report().String())
	}
	if res.Report().ID != "fig12b" {
		t.Fatal("report ID")
	}
}

func TestFig13CrossSeriesGrowsWithCoverage(t *testing.T) {
	cfg := DefaultFig13Config()
	cfg.Catalog.NumSeries = 8
	cfg.Catalog.NumTrunks = 3
	cfg.Catalog.MinPerSeries, cfg.Catalog.MaxPerSeries = 3, 4
	cfg.SeriesCounts = []int{4, 8}
	cfg.Repeats = 2
	cfg.ValidationSize = 200
	res, err := RunFig13(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	last := len(res.SeriesCounts) - 1
	// With shared trunks, a substantial fraction of series find
	// equivalents outside themselves once coverage is broad.
	if res.Top5Outside[last] < 0.5 {
		t.Fatalf("top-5 outside fraction too low: %v", res.Top5Outside)
	}
	if res.Top1Outside[last] > res.Top5Outside[last]+1e-9 {
		t.Fatalf("top-1 cannot exceed top-5: %v vs %v", res.Top1Outside, res.Top5Outside)
	}
	if res.Report().ID != "fig13" {
		t.Fatal("report ID")
	}
}

func TestTable2TimeGrowsWithModelSize(t *testing.T) {
	cfg := Table2Config{Scale: 0.002, Seed: 2}
	res, err := RunTable2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// BERT-scale must dominate AlexNet-scale in both checks; parameter
	// counts must be ordered as in the paper.
	first, last := res.Rows[0], res.Rows[3]
	if last.Params <= first.Params {
		t.Fatalf("param ordering: %d vs %d", first.Params, last.Params)
	}
	if last.WholeMS <= first.WholeMS {
		t.Fatalf("whole-model time not growing: %.1f vs %.1f", first.WholeMS, last.WholeMS)
	}
	if res.Report().ID != "table2" {
		t.Fatal("report ID")
	}
}

func TestTable3LatencyShape(t *testing.T) {
	cfg := Table3Config{Sizes: []int{100, 10000}, Queries: 21, Seed: 3}
	res, err := RunTable3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Semantic lookups are much cheaper than resource (LSH) lookups at
	// scale, and resource latency grows with records.
	if res.SemanticMS[1] >= res.ResourceMS[1] {
		t.Fatalf("semantic (%.3f) should be cheaper than resource (%.3f)",
			res.SemanticMS[1], res.ResourceMS[1])
	}
	if res.ResourceMS[1] <= res.ResourceMS[0] {
		t.Fatalf("resource latency should grow with records: %v", res.ResourceMS)
	}
	// Combined includes the resource lookup, so it should be in the
	// same band or above (0.7 slack absorbs cache-warming jitter).
	if res.BothMS[1] < 0.7*res.ResourceMS[1] {
		t.Fatalf("combined latency below resource-only: %v vs %v", res.BothMS, res.ResourceMS)
	}
	if res.Report().ID != "table3" {
		t.Fatal("report ID")
	}
}

func TestTable4MemoryShape(t *testing.T) {
	cfg := Table4Config{Sizes: []int{10, 1000, 100000}, Seed: 4}
	res, err := RunTable4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(cfg.Sizes); i++ {
		if res.ResourceMB[i] <= res.ResourceMB[i-1] {
			t.Fatalf("resource footprint not growing: %v", res.ResourceMB)
		}
		if res.SemanticMB[i] <= res.SemanticMB[i-1] {
			t.Fatalf("semantic footprint not growing: %v", res.SemanticMB)
		}
	}
	// Paper: mostly under 80 MB even at 100K.
	if res.ResourceMB[2] > 80 || res.SemanticMB[2] > 80 {
		t.Fatalf("footprint exceeds paper band: %v %v", res.ResourceMB, res.SemanticMB)
	}
	if res.Report().ID != "table4" {
		t.Fatal("report ID")
	}
}

func TestAblationBoundFloorSound(t *testing.T) {
	res, err := RunAblationBound(6)
	if err != nil {
		t.Fatal(err)
	}
	if res.FloorViolations != 0 {
		t.Fatalf("floor violated %d times", res.FloorViolations)
	}
	if res.TestingSpread <= 0 {
		t.Fatal("testing-only scores show no dataset dependence")
	}
	if res.Report().ID != "ablation-bound" {
		t.Fatal("report ID")
	}
}

func TestAblationSamplingFasterAtSmallK(t *testing.T) {
	res, err := RunAblationSampling(context.Background(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SampleSizes) != 3 {
		t.Fatalf("sample sizes %v", res.SampleSizes)
	}
	// Smaller k must index faster than full pairwise.
	if res.IndexMS[0] >= res.IndexMS[2] {
		t.Fatalf("sampled insertion not faster: %v", res.IndexMS)
	}
	// Full pairwise must retain the ideal top-1.
	if !res.Top1Hit[2] {
		t.Fatal("full pairwise lost the ideal top-1")
	}
	if res.Report().ID != "ablation-sampling" {
		t.Fatal("report ID")
	}
}

func TestAblationLSHFasterAtScale(t *testing.T) {
	res, err := RunAblationLSH(8)
	if err != nil {
		t.Fatal(err)
	}
	last := len(res.Sizes) - 1
	if res.LSHMS[last] >= res.LinearMS[last] {
		t.Fatalf("LSH not faster at %d records: %.3f vs %.3f",
			res.Sizes[last], res.LSHMS[last], res.LinearMS[last])
	}
	if res.Recall[last] <= 0.2 {
		t.Fatalf("LSH recall collapsed: %v", res.Recall)
	}
	if res.Report().ID != "ablation-lsh" {
		t.Fatal("report ID")
	}
}

func TestAblationSegmentRecoversReuse(t *testing.T) {
	res, err := RunAblationSegment(9)
	if err != nil {
		t.Fatal(err)
	}
	if res.SegmentLevel <= res.WholeLevel {
		t.Fatalf("segment level %.3f should beat whole-model %.3f", res.SegmentLevel, res.WholeLevel)
	}
	if res.SegmentLevel < 0.85 {
		t.Fatalf("frozen-trunk segment level too low: %.3f", res.SegmentLevel)
	}
	if res.Report().ID != "ablation-segment" {
		t.Fatal("report ID")
	}
}

func TestAblationSwitchCostShape(t *testing.T) {
	res, err := RunAblationSwitchCost(context.Background(), 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Names) != 4 {
		t.Fatalf("configs = %v", res.Names)
	}
	free, fg, bg := res.P99[0], res.P99[1], res.P99[3]
	if fg < free {
		t.Fatalf("foreground swaps should not beat free swaps: %.1f vs %.1f", fg, free)
	}
	// Background swapping must recover most of the foreground penalty.
	if bg-free > (fg-free)/2+1e-9 {
		t.Fatalf("background swap recovered too little: free %.1f fg %.1f bg %.1f", free, fg, bg)
	}
	if res.Report().ID != "ablation-switchcost" {
		t.Fatal("report ID")
	}
}
