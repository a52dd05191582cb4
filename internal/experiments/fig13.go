package experiments

import (
	"context"
	"fmt"

	"sommelier"
	"sommelier/internal/equiv"
	"sommelier/internal/repo"
	"sommelier/internal/tensor"
	"sommelier/internal/zoo"
)

// ---------------------------------------------------------------------
// Figure 13: cross-series DNN similarity in the TF-Hub-like catalog.
// ---------------------------------------------------------------------

// Fig13Config scales the catalog experiment.
type Fig13Config struct {
	Catalog zoo.CatalogConfig
	// SeriesCounts is the x-axis: how many randomly selected series are
	// indexed at each step.
	SeriesCounts []int
	// Repeats is the number of random series orders (the paper uses 5).
	Repeats int
	// ValidationSize for the engine's equivalence probes.
	ValidationSize int
	Seed           uint64
}

// DefaultFig13Config uses a reduced catalog (12 series) so the full
// sweep stays tractable in CI; cmd/sommbench can run the paper-scale 30.
func DefaultFig13Config() Fig13Config {
	cat := zoo.DefaultCatalogConfig()
	cat.NumSeries = 12
	cat.MinPerSeries, cat.MaxPerSeries = 4, 6
	cat.NumTrunks = 4
	return Fig13Config{
		Catalog:        cat,
		SeriesCounts:   []int{4, 8, 12},
		Repeats:        3,
		ValidationSize: 600,
		Seed:           0x13f,
	}
}

// Fig13Result reports, per indexed-series count, the fraction of series
// whose models find their top-1 / top-5 functional equivalents outside
// their own series (averaged over repeats).
type Fig13Result struct {
	SeriesCounts []int
	Top1Outside  []float64
	Top5Outside  []float64
	TotalModels  int
}

// RunFig13 incrementally indexes randomly chosen series and measures how
// often the best equivalents of a series' models live in another series.
func RunFig13(ctx context.Context, cfg Fig13Config) (*Fig13Result, error) {
	series, err := zoo.Catalog(cfg.Catalog)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, s := range series {
		total += len(s.Models)
	}
	res := &Fig13Result{SeriesCounts: cfg.SeriesCounts, TotalModels: total}
	rng := tensor.NewRNG(cfg.Seed)

	for _, count := range cfg.SeriesCounts {
		if count > len(series) {
			return nil, fmt.Errorf("experiments: fig13 requested %d series, catalog has %d", count, len(series))
		}
		var t1Sum, t5Sum float64
		for rep := 0; rep < cfg.Repeats; rep++ {
			perm := rng.Perm(len(series))
			chosen := make([]zoo.Series, count)
			for i := 0; i < count; i++ {
				chosen[i] = series[perm[i]]
			}
			t1, t5, err := fig13Round(ctx, chosen, cfg, cfg.Seed+uint64(rep)*103)
			if err != nil {
				return nil, err
			}
			t1Sum += t1
			t5Sum += t5
		}
		res.Top1Outside = append(res.Top1Outside, t1Sum/float64(cfg.Repeats))
		res.Top5Outside = append(res.Top5Outside, t5Sum/float64(cfg.Repeats))
	}
	return res, nil
}

// fig13Round indexes the chosen series and returns the fraction of
// series containing at least one model whose top-1 (resp. any of top-5)
// equivalent lies outside its own series.
func fig13Round(ctx context.Context, chosen []zoo.Series, cfg Fig13Config, seed uint64) (top1, top5 float64, err error) {
	store := repo.NewInMemory()
	// Testing-only scoring: the case study measures where the empirical
	// semantic correlation lives; the architecture-dependent bound term
	// would otherwise dominate the small gaps between catalog rungs of
	// different widths.
	eng, err := sommelier.NewEngine(store,
		sommelier.WithSeed(seed), sommelier.WithValidationSize(cfg.ValidationSize), sommelier.WithBound(equiv.BoundOff))
	if err != nil {
		return 0, 0, err
	}
	seriesOf := make(map[string]string)
	for _, s := range chosen {
		for _, m := range s.Models {
			id, err := eng.RegisterContext(ctx, m)
			if err != nil {
				return 0, 0, err
			}
			seriesOf[id] = s.Name
		}
	}
	t1Series := make(map[string]bool)
	t5Series := make(map[string]bool)
	for id, own := range seriesOf {
		top, err := eng.TopEquivalents(id, 5)
		if err != nil {
			return 0, 0, err
		}
		if len(top) > 0 && seriesOf[top[0].ID] != own {
			t1Series[own] = true
		}
		for _, c := range top {
			if seriesOf[c.ID] != own {
				t5Series[own] = true
				break
			}
		}
	}
	n := float64(len(chosen))
	return float64(len(t1Series)) / n, float64(len(t5Series)) / n, nil
}

// Report renders the x → fraction series.
func (r *Fig13Result) Report() Report {
	rep := Report{ID: "fig13", Title: "Cross-series DNN similarity (top-K equivalents found outside own series)"}
	rep.Lines = append(rep.Lines, line("catalog: %d models", r.TotalModels))
	rep.Lines = append(rep.Lines, "series indexed   top-1 outside   top-5 outside")
	for i, c := range r.SeriesCounts {
		rep.Lines = append(rep.Lines, line("%14d   %12.0f%%   %12.0f%%",
			c, r.Top1Outside[i]*100, r.Top5Outside[i]*100))
	}
	rep.Lines = append(rep.Lines, "(paper: up to 40% top-1 and 80% top-5 found in another series; grows with coverage)")
	return rep
}
