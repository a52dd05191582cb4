// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, plus the ablation benches DESIGN.md calls out.
// Each bench runs the corresponding experiment driver end-to-end and
// reports domain-specific metrics alongside ns/op, so
//
//	go test -bench=. -benchmem
//
// regenerates (a reduced-scale version of) the paper's entire evaluation.
// cmd/sommbench prints the full paper-style tables. The system's own
// performance is measured elsewhere: bench/ (sommperf, BENCHMARK.json).
package sommelier_test

import (
	"context"
	"testing"

	"sommelier/internal/experiments"
)

func BenchmarkFigure3AgreementMatrix(b *testing.B) {
	cfg := experiments.DefaultFig3Config()
	cfg.Samples = 500
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MinOffDiagonal(), "min-pair-agree")
		b.ReportMetric(res.MaxDiagonal(), "max-own-acc")
	}
}

func BenchmarkFigure9aQueryQuality(b *testing.B) {
	cfg := experiments.Fig9aConfig{
		Spreads:         []float64{0.04, 0.10},
		Bases:           4,
		VariantsPerBase: 6,
		ValidationSize:  800,
		Seed:            7,
	}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig9a(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.HitRates[0]*100, "hit%@4")
		b.ReportMetric(res.HitRates[len(res.HitRates)-1]*100, "hit%@10")
	}
}

func BenchmarkFigure9bEffort(b *testing.B) {
	cfg := experiments.Fig9bConfig{Models: 8, ValidationSize: 200, Seed: 2}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig9b(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.TimeRatio[0], "time-ratio")
		b.ReportMetric(res.LoCRatio[0], "loc-ratio")
	}
}

func BenchmarkFigure9cTailLatency(b *testing.B) {
	cfg := experiments.Fig9cConfig{Requests: 5000, Seed: 3}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig9c(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		base, scale, sw, _ := res.P90s()
		b.ReportMetric(base/sw, "p90-win-switching")
		b.ReportMetric(base/scale, "p90-win-scaleout")
	}
}

func BenchmarkFigure10SegmentBounds(b *testing.B) {
	cfg := experiments.DefaultFig10Config()
	cfg.Samples = 200
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig10(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sound := 0.0
		if res.Sound(0.02) {
			sound = 1
		}
		b.ReportMetric(sound, "bound-sound")
	}
}

func BenchmarkTable1WholeModelBounds(b *testing.B) {
	cfg := experiments.Table1Config{Sizes: []int{100, 1000}, Repeats: 5, Seed: 4}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		c := res.Cells[res.Models[0]]
		b.ReportMetric(c[len(c)-1].Bound, "bound%@1k")
		b.ReportMetric(c[len(c)-1].AvgActual, "actual%@1k")
	}
}

func BenchmarkFigure11ModelDiff(b *testing.B) {
	cfg := experiments.DefaultFig11Config()
	cfg.Draws = 8
	cfg.Samples = 150
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig11(cfg)
		if err != nil {
			b.Fatal(err)
		}
		f := res.Families[0]
		b.ReportMetric(f.ModelDiff.MaxV-f.ModelDiff.MinV, "modeldiff-spread")
		b.ReportMetric(f.BoundedFloor, "sommelier-floor")
	}
}

func BenchmarkFigure12aResourceVariation(b *testing.B) {
	cfg := experiments.Fig12aConfig{Widths: []int{32, 64}, Seed: 5}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig12a(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Variation[0]*100, "mem-variation%")
	}
}

func BenchmarkFigure12bCrossSeries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig12b(context.Background(), experiments.Fig12bConfig{Seed: 6})
		if err != nil {
			b.Fatal(err)
		}
		crossWin := 0.0
		if res.BestSeries == "efficientish" {
			crossWin = 1
		}
		b.ReportMetric(crossWin, "cross-series-win")
	}
}

func BenchmarkFigure13TopKOutside(b *testing.B) {
	cfg := experiments.DefaultFig13Config()
	cfg.Catalog.NumSeries = 6
	cfg.Catalog.NumTrunks = 2
	cfg.Catalog.MinPerSeries, cfg.Catalog.MaxPerSeries = 3, 4
	cfg.SeriesCounts = []int{6}
	cfg.Repeats = 1
	cfg.ValidationSize = 150
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig13(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Top5Outside[0]*100, "top5-outside%")
	}
}

func BenchmarkTable2EquivLatency(b *testing.B) {
	// Reduced-scale model sizes (see Table2Config.Scale); use
	// cmd/sommbench -table2scale 1.0 for the paper's 62M..340M sizes.
	cfg := experiments.Table2Config{Scale: 0.002, Seed: 7}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[len(res.Rows)-1].WholeMS, "bert-whole-ms")
	}
}

func BenchmarkTable3QueryLatency(b *testing.B) {
	cfg := experiments.Table3Config{Sizes: []int{100, 10000}, Queries: 5, Seed: 8}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.BothMS[len(res.BothMS)-1], "both-ms@10k")
	}
}

func BenchmarkTable4IndexMemory(b *testing.B) {
	cfg := experiments.Table4Config{Sizes: []int{10, 10000}, Seed: 9}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ResourceMB[len(res.ResourceMB)-1], "resource-MB@10k")
		b.ReportMetric(res.SemanticMB[len(res.SemanticMB)-1], "semantic-MB@10k")
	}
}

func BenchmarkAblationBoundOnOff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblationBound(10)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.TestingSpread, "testing-spread")
		b.ReportMetric(float64(res.FloorViolations), "floor-violations")
	}
}

func BenchmarkAblationSampledInsertion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblationSampling(context.Background(), 11)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.IndexMS[0], "index-ms@k2")
		b.ReportMetric(res.IndexMS[len(res.IndexMS)-1], "index-ms@full")
	}
}

func BenchmarkAblationLSHvsLinear(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblationLSH(12)
		if err != nil {
			b.Fatal(err)
		}
		last := len(res.Sizes) - 1
		b.ReportMetric(res.LSHMS[last], "lsh-ms@100k")
		b.ReportMetric(res.LinearMS[last], "linear-ms@100k")
	}
}

func BenchmarkAblationSegmentVsWhole(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblationSegment(13)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.SegmentLevel-res.WholeLevel, "segment-gain")
	}
}

func BenchmarkAblationSwitchCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblationSwitchCost(context.Background(), 14)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.P99[1]-res.P99[0], "fg-swap-p99-cost")
		b.ReportMetric(res.P99[3]-res.P99[0], "bg-swap-p99-cost")
	}
}
