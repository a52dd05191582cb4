// Command sommperf is the repository's benchmark: it drives publish →
// index → query → pull through the public functions of every layer,
// prints every metric by name with its unit, checks outputs, and exits
// non-zero on a wrong answer. See ../../README.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"sommelier/bench"
)

func main() {
	var cfg bench.Config
	var noise bench.NoiseConfig
	workload := flag.String("workload", "", "workload to run: "+strings.Join(bench.Workloads, ", ")+" (default: all, one after another)")
	flag.Uint64Var(&cfg.Seed, "seed", 1, "seed of the input generator")
	flag.Float64Var(&cfg.Seconds, "seconds", 24, "how long one run measures")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	traceOut := flag.String("trace-out", "", "with -trace 1: file to write the spans to, one JSON object per line")
	flag.StringVar(&cfg.TmpDir, "tmp", "", "directory for disk-backed repositories (default: the system's)")
	all := flag.Bool("all", false, "put every metric, not only the gated ones, on the result line")
	commit := flag.String("commit", "unknown", "commit under test, for the run metadata")
	flag.IntVar(&noise.Repeat, "repeat", 0, "noise study: runs per workload and set (0: no study)")
	flag.IntVar(&noise.Sets, "sets", 2, "noise study: sets of runs")
	noiseOut := flag.String("noise-out", "bench/NOISE.md", "noise study: file to write the table to")
	benchmark := flag.String("benchmark", "BENCHMARK.json", "noise study: the benchmark definition holding the bounds")
	flag.Parse()
	cfg.Trace = *trace != 0
	if cfg.TmpDir != "" {
		if err := os.MkdirAll(cfg.TmpDir, 0o755); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("sommperf commit=%s %s GOMAXPROCS=%d nproc=%d seed=%d seconds=%g\n",
		*commit, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cfg.Seed, cfg.Seconds)

	if noise.Repeat > 0 {
		runNoise(noise, cfg, *benchmark, *noiseOut)
		return
	}
	workloads := bench.Workloads
	if *workload != "" {
		workloads = []string{*workload}
	}
	correct := true
	for _, w := range workloads {
		cfg.Workload = w
		rep, tr, err := bench.Run(context.Background(), cfg)
		if err != nil {
			fatal(err)
		}
		rep.WriteText(os.Stdout)
		defs := bench.EndToEnd
		if cfg.Trace {
			defs = bench.PerLayer
			bench.WriteAccounting(os.Stdout, w, tr.Account())
			if *traceOut != "" {
				if err := writeSpans(tr, *traceOut); err != nil {
					fatal(err)
				}
			}
		}
		if *all {
			defs = nil
		}
		if err := rep.WriteResultLine(os.Stdout, defs); err != nil {
			fatal(err)
		}
		correct = correct && rep.Correct()
	}
	if !correct {
		os.Exit(1)
	}
}

func runNoise(noise bench.NoiseConfig, cfg bench.Config, benchmark, out string) {
	bounds, err := bench.LoadBounds(benchmark)
	if err != nil {
		fatal(err)
	}
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	noise.Seconds, noise.Seed, noise.TmpDir, noise.Bounds = cfg.Seconds, cfg.Seed, cfg.TmpDir, bounds
	table, err := bench.Noise(noise, exe, os.Stdout)
	if err != nil {
		fatal(err)
	}
	goVersion, _ := exec.Command("go", "version").Output()
	table += fmt.Sprintf("\nMeasured with %s on %d CPUs, GOMAXPROCS %d.\n", strings.TrimSpace(string(goVersion)), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	if err := os.WriteFile(out, []byte(table), 0o644); err != nil {
		fatal(err)
	}
	fmt.Print(table)
}

func writeSpans(tr *bench.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sommperf:", err)
	os.Exit(2)
}
