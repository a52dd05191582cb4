package experiments

import (
	"context"
	"fmt"

	"sommelier"
	"sommelier/internal/repo"
	"sommelier/internal/resource"
	"sommelier/internal/zoo"
)

// ---------------------------------------------------------------------
// Figure 12(a): memory variation across execution settings.
// ---------------------------------------------------------------------

// Fig12aConfig scales the resource-variation experiment.
type Fig12aConfig struct {
	Widths []int
	Seed   uint64
}

// DefaultFig12aConfig builds a five-rung BiT-like ladder.
func DefaultFig12aConfig() Fig12aConfig {
	return Fig12aConfig{Widths: []int{32, 48, 64, 96, 128}, Seed: 0x12a}
}

// Fig12aResult reports, per BiT-like model, the memory footprint under
// each execution setting and the max relative variation.
type Fig12aResult struct {
	Models    []string
	Settings  []string
	MemoryMB  [][]float64 // [model][setting]
	Variation []float64   // max/min - 1 per model
}

// RunFig12a profiles each ladder model under a grid of execution
// settings (batch size, precision, runtime overhead) and measures how
// much its memory consumption varies.
func RunFig12a(cfg Fig12aConfig) (*Fig12aResult, error) {
	teacher, err := zoo.DenseResidualNet(zoo.Config{Name: "bit-teacher", Seed: cfg.Seed, Width: 32, Depth: 2})
	if err != nil {
		return nil, err
	}
	ladder, err := zoo.SizeLadder("bitish", teacher, 32, cfg.Widths, fig12aTargets(len(cfg.Widths)), cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	settings := []resource.ExecSetting{
		{Name: "b1-fp32", BatchSize: 1, ActivationBytes: 4, RuntimeOverhead: 0.02},
		{Name: "b8-fp32", BatchSize: 8, ActivationBytes: 4, RuntimeOverhead: 0.05},
		{Name: "b32-fp32", BatchSize: 32, ActivationBytes: 4, RuntimeOverhead: 0.08},
		{Name: "b8-fp16", BatchSize: 8, ActivationBytes: 2, RuntimeOverhead: 0.05},
		{Name: "b1-fp16", BatchSize: 1, ActivationBytes: 2, RuntimeOverhead: 0.12},
	}
	prof := resource.NewProfiler(nil)
	res := &Fig12aResult{}
	for _, s := range settings {
		res.Settings = append(res.Settings, s.Name)
	}
	for _, m := range ladder {
		res.Models = append(res.Models, m.Name)
		row := make([]float64, len(settings))
		lo, hi := -1.0, -1.0
		for si, s := range settings {
			p, err := prof.MeasureWith(m, s)
			if err != nil {
				return nil, err
			}
			mb := float64(p.MemoryBytes) / (1 << 20)
			row[si] = mb
			if lo < 0 || mb < lo {
				lo = mb
			}
			if mb > hi {
				hi = mb
			}
		}
		res.MemoryMB = append(res.MemoryMB, row)
		res.Variation = append(res.Variation, hi/lo-1)
	}
	return res, nil
}

// fig12aTargets returns the decreasing per-rung disagreement schedule of
// a realistic accuracy ladder.
func fig12aTargets(n int) []float64 {
	out := make([]float64, n)
	den := n - 1
	if den < 1 {
		den = 1
	}
	for i := range out {
		out[i] = 0.02 + 0.08*float64(n-1-i)/float64(den)
	}
	return out
}

// Report renders the variation table.
func (r *Fig12aResult) Report() Report {
	rep := Report{ID: "fig12a", Title: "Resource variation across execution settings (memory, MB)"}
	header := "model           "
	for _, s := range r.Settings {
		header += fmt.Sprintf("%10s", s)
	}
	header += "   variation"
	rep.Lines = append(rep.Lines, header)
	for i, m := range r.Models {
		l := fmt.Sprintf("%-16s", truncate(m, 15))
		for _, v := range r.MemoryMB[i] {
			l += fmt.Sprintf("%10.3f", v)
		}
		l += fmt.Sprintf("   %8.0f%%", r.Variation[i]*100)
		rep.Lines = append(rep.Lines, l)
	}
	rep.Lines = append(rep.Lines, "(paper: memory varies ~25% across settings, motivating the resource index)")
	return rep
}

// ---------------------------------------------------------------------
// Figure 12(b): cross-series replacement for the flagship model.
// ---------------------------------------------------------------------

// Fig12bConfig scales the cross-series experiment.
type Fig12bConfig struct {
	Seed uint64
}

// DefaultFig12bConfig uses the paper's 13-model BiT+EfficientNet layout.
func DefaultFig12bConfig() Fig12bConfig { return Fig12bConfig{Seed: 0x12b} }

// Fig12bResult lists the candidates (compact models from both series)
// with their equivalence level to the flagship reference.
type Fig12bResult struct {
	Reference string
	// Candidates in descending level order.
	IDs    []string
	Series []string
	Levels []float64
	MemMB  []float64
	// BestSeries is the series of the best compact candidate.
	BestSeries string
}

// RunFig12b indexes a BiT-like series (5 models) and an
// EfficientNet-like series (8 models), uses the largest BiT-like model
// as the reference, and asks for a replacement at roughly one-eighth its
// memory. The paper's surprise: the best candidate comes from the other
// series.
func RunFig12b(ctx context.Context, cfg Fig12bConfig) (*Fig12bResult, error) {
	teacher, err := zoo.DenseResidualNet(zoo.Config{Name: "cv-teacher", Seed: cfg.Seed, Width: 32, Depth: 2})
	if err != nil {
		return nil, err
	}
	// BiT-like: 5 rungs ending at a large flagship; its small rungs
	// drift further from the flagship's behaviour (coreDiff 0.12).
	bit, err := zoo.SizeLadder("bitish", teacher, 32, []int{32, 48, 96, 192, 288},
		[]float64{0.25, 0.18, 0.12, 0.06, 0.02}, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	// EfficientNet-like: 8 rungs, behaviourally closer to the task
	// teacher (coreDiff 0.03) — the series that "surprisingly" wins.
	eff, err := zoo.SizeLadder("efficientish", teacher, 32, []int{32, 36, 40, 48, 64, 96, 128, 160},
		[]float64{0.09, 0.085, 0.08, 0.075, 0.07, 0.06, 0.05, 0.045}, cfg.Seed+2)
	if err != nil {
		return nil, err
	}

	store := repo.NewInMemory()
	eng, err := sommelier.NewEngine(store,
		sommelier.WithSeed(cfg.Seed), sommelier.WithValidationSize(500), sommelier.WithSampleSize(16))
	if err != nil {
		return nil, err
	}
	flagship := bit[len(bit)-1]
	refID, err := eng.RegisterContext(ctx, flagship)
	if err != nil {
		return nil, err
	}
	for _, m := range bit[:len(bit)-1] {
		if _, err := eng.RegisterContext(ctx, m); err != nil {
			return nil, err
		}
	}
	for _, m := range eff {
		if _, err := eng.RegisterContext(ctx, m); err != nil {
			return nil, err
		}
	}

	// One-eighth the flagship's memory, with slack for rung granularity.
	results, err := eng.QueryContext(ctx, fmt.Sprintf(
		"SELECT CORR %q WITHIN 0%% ON memory <= 16%% PICK most_similar", refID))
	if err != nil {
		return nil, err
	}
	res := &Fig12bResult{Reference: refID}
	for _, r := range results {
		m, err := store.Load(r.ID)
		if err != nil {
			return nil, err
		}
		res.IDs = append(res.IDs, r.ID)
		res.Series = append(res.Series, m.Metadata["series"])
		res.Levels = append(res.Levels, r.Level)
		res.MemMB = append(res.MemMB, float64(r.Profile.MemoryBytes)/(1<<20))
	}
	if len(res.Series) > 0 {
		res.BestSeries = res.Series[0]
	}
	return res, nil
}

// Report renders the candidate ranking.
func (r *Fig12bResult) Report() Report {
	rep := Report{ID: "fig12b", Title: "Functional equivalence across series (1/8-size replacement for the flagship)"}
	rep.Lines = append(rep.Lines, line("reference: %s", r.Reference))
	rep.Lines = append(rep.Lines, "rank  candidate                series          level   memory(MB)")
	for i := range r.IDs {
		rep.Lines = append(rep.Lines, line("%4d  %-24s %-14s %6.3f   %10.3f",
			i+1, truncate(r.IDs[i], 24), r.Series[i], r.Levels[i], r.MemMB[i]))
	}
	rep.Lines = append(rep.Lines, line("best series: %s (paper: the better 1/8-size model comes from EfficientNet, not BiT)",
		r.BestSeries))
	return rep
}
