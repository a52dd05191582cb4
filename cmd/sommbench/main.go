// Command sommbench regenerates every table and figure from the paper's
// evaluation (§7) plus the ablation studies DESIGN.md calls out, printing
// paper-style rows. Run all experiments:
//
//	sommbench
//
// or a subset:
//
//	sommbench -exp fig9a,fig9c,table3
//
// Scale knobs:
//
//	sommbench -exp table2 -table2scale 0.25   # closer to paper model sizes
//	sommbench -exp fig13 -fig13full           # the full 30-series catalog
//
// Ctrl-C (or SIGTERM) cancels the running experiment's context, so an
// experiment that is indexing or simulating aborts mid-run and the
// program exits 1; a second signal kills one that takes no context.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"sommelier/internal/experiments"
	"sommelier/internal/zoo"
)

type runner struct {
	id  string
	run func(ctx context.Context) (fmt.Stringer, error)
}

func main() {
	var (
		expFlag     = flag.String("exp", "all", "comma-separated experiment ids (fig3,fig9a,fig9b,fig9c,fig10,fig11,fig12a,fig12b,fig13,table1,table2,table3,table4,ablations) or 'all'")
		table2Scale = flag.Float64("table2scale", 0.02, "fraction of the paper's model sizes for table2 (1.0 = full 62M..340M parameters)")
		fig13Full   = flag.Bool("fig13full", false, "run fig13 on the full 30-series/163-model catalog")
		seed        = flag.Uint64("seed", 2022, "base random seed")
	)
	flag.Parse()

	selected, err := selectRunners(*expFlag, runners(*seed, *table2Scale, *fig13Full))
	if err != nil {
		fmt.Fprintf(os.Stderr, "sommbench: %v\n", err)
		os.Exit(2)
	}

	// The first interrupt cancels ctx, which aborts an experiment that
	// is indexing or simulating; it also restores the default signal
	// disposition, so a second one kills an experiment that takes no ctx.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop)

	failed := false
	for _, r := range selected {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "sommbench: interrupted")
			failed = true
			break
		}
		start := time.Now()
		rep, err := r.run(ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", r.id, err)
			failed = true
			continue
		}
		fmt.Println(rep.String())
		fmt.Printf("-- %s completed in %s --\n\n", r.id, time.Since(start).Round(time.Millisecond))
	}
	if failed {
		os.Exit(1)
	}
}

// selectRunners resolves the -exp value against the runner ids: "all"
// selects every runner, otherwise each comma-separated id must name
// one. An unknown id is an error naming the valid ids, so a typo fails
// before any experiment runs instead of silently running nothing.
func selectRunners(exp string, all []runner) ([]runner, error) {
	if exp == "all" {
		return all, nil
	}
	ids := make([]string, len(all))
	for i, r := range all {
		ids[i] = r.id
	}
	want := map[string]bool{}
	for _, id := range strings.Split(exp, ",") {
		id = strings.TrimSpace(id)
		if !slices.Contains(ids, id) {
			return nil, fmt.Errorf("unknown experiment %q; valid ids: %s, or all", id, strings.Join(ids, ","))
		}
		want[id] = true
	}
	var selected []runner
	for _, r := range all {
		if want[r.id] {
			selected = append(selected, r)
		}
	}
	return selected, nil
}

// runners lists every experiment in the order -exp all prints them.
func runners(seed uint64, table2Scale float64, fig13Full bool) []runner {
	return []runner{
		{"fig3", func(context.Context) (fmt.Stringer, error) {
			cfg := experiments.DefaultFig3Config()
			cfg.Seed = seed
			r, err := experiments.RunFig3(cfg)
			return report(r, err)
		}},
		{"fig9a", func(ctx context.Context) (fmt.Stringer, error) {
			cfg := experiments.DefaultFig9aConfig()
			cfg.Seed = seed
			r, err := experiments.RunFig9a(ctx, cfg)
			return report(r, err)
		}},
		{"fig9b", func(ctx context.Context) (fmt.Stringer, error) {
			cfg := experiments.DefaultFig9bConfig()
			cfg.Seed = seed
			r, err := experiments.RunFig9b(ctx, cfg)
			return report(r, err)
		}},
		{"fig9c", func(ctx context.Context) (fmt.Stringer, error) {
			cfg := experiments.DefaultFig9cConfig()
			cfg.Seed = seed
			r, err := experiments.RunFig9c(ctx, cfg)
			return report(r, err)
		}},
		{"fig10", func(context.Context) (fmt.Stringer, error) {
			cfg := experiments.DefaultFig10Config()
			cfg.Seed = seed
			r, err := experiments.RunFig10(cfg)
			return report(r, err)
		}},
		{"fig11", func(context.Context) (fmt.Stringer, error) {
			cfg := experiments.DefaultFig11Config()
			cfg.Seed = seed
			r, err := experiments.RunFig11(cfg)
			return report(r, err)
		}},
		{"fig12a", func(context.Context) (fmt.Stringer, error) {
			cfg := experiments.DefaultFig12aConfig()
			cfg.Seed = seed
			r, err := experiments.RunFig12a(cfg)
			return report(r, err)
		}},
		{"fig12b", func(ctx context.Context) (fmt.Stringer, error) {
			r, err := experiments.RunFig12b(ctx, experiments.Fig12bConfig{Seed: seed})
			return report(r, err)
		}},
		{"fig13", func(ctx context.Context) (fmt.Stringer, error) {
			cfg := experiments.DefaultFig13Config()
			cfg.Seed = seed
			if fig13Full {
				cfg.Catalog = zoo.DefaultCatalogConfig()
				cfg.SeriesCounts = []int{5, 10, 15, 20, 25, 30}
				cfg.Repeats = 5
			}
			r, err := experiments.RunFig13(ctx, cfg)
			return report(r, err)
		}},
		{"table1", func(context.Context) (fmt.Stringer, error) {
			cfg := experiments.DefaultTable1Config()
			cfg.Seed = seed
			r, err := experiments.RunTable1(cfg)
			return report(r, err)
		}},
		{"table2", func(context.Context) (fmt.Stringer, error) {
			r, err := experiments.RunTable2(experiments.Table2Config{Scale: table2Scale, Seed: seed})
			return report(r, err)
		}},
		{"table3", func(context.Context) (fmt.Stringer, error) {
			cfg := experiments.DefaultTable3Config()
			cfg.Seed = seed
			r, err := experiments.RunTable3(cfg)
			return report(r, err)
		}},
		{"table4", func(context.Context) (fmt.Stringer, error) {
			cfg := experiments.DefaultTable4Config()
			cfg.Seed = seed
			r, err := experiments.RunTable4(cfg)
			return report(r, err)
		}},
		{"ablations", func(ctx context.Context) (fmt.Stringer, error) {
			var out multiReport
			b, err := experiments.RunAblationBound(seed)
			if err != nil {
				return nil, err
			}
			out = append(out, b.Report())
			s, err := experiments.RunAblationSampling(ctx, seed)
			if err != nil {
				return nil, err
			}
			out = append(out, s.Report())
			l, err := experiments.RunAblationLSH(seed)
			if err != nil {
				return nil, err
			}
			out = append(out, l.Report())
			g, err := experiments.RunAblationSegment(seed)
			if err != nil {
				return nil, err
			}
			out = append(out, g.Report())
			c, err := experiments.RunAblationSwitchCost(ctx, seed)
			if err != nil {
				return nil, err
			}
			out = append(out, c.Report())
			return out, nil
		}},
	}
}

// reporter is any experiment result that renders a Report.
type reporter interface{ Report() experiments.Report }

func report(r reporter, err error) (fmt.Stringer, error) {
	if err != nil {
		return nil, err
	}
	return r.Report(), nil
}

type multiReport []experiments.Report

func (m multiReport) String() string {
	var b strings.Builder
	for _, r := range m {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}
