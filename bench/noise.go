package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"

	"sommelier/internal/stats"
)

// NoiseConfig sizes a noise study: Sets sets of Repeat runs of every
// workload, each run a fresh process with its own seed, as the
// benchmark's driver makes them.
type NoiseConfig struct {
	Repeat, Sets int
	Seconds      float64
	Seed         uint64
	TmpDir       string
	// Bounds maps each end-to-end metric to its regression bound and
	// says which way is better, from BENCHMARK.json.
	Bounds map[string]Bound
}

// Bound is one end-to-end metric's entry in BENCHMARK.json.
type Bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// LoadBounds reads the end-to-end metrics of a BENCHMARK.json.
func LoadBounds(path string) (map[string]Bound, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file struct {
		EndToEnd []Bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	out := make(map[string]Bound, len(file.EndToEnd))
	for _, b := range file.EndToEnd {
		out[b.Name] = b
	}
	return out, nil
}

// spread is the distance between the first and third quartile as a
// share of the median, the way Python's statistics.quantiles(v, n=4)
// cuts them (exclusive method), which is how the driver judges a
// benchmark's steadiness.
func spread(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		lo := min(max(int(pos), 1), len(s)-1)
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	med := stats.Percentile(s, 50)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}

// noiseRow is one metric of one workload across the sets.
type noiseRow struct {
	Workload, Metric string
	// Sets[s] holds the metric's value in every run of set s; Raw[s]
	// the uncorrected twin's, for timing metrics.
	Sets, Raw [][]float64
}

// Noise runs the study by re-executing exe once per run, prints
// progress to log and returns the table as markdown.
func Noise(cfg NoiseConfig, exe string, log io.Writer) (string, error) {
	rows := map[string]*noiseRow{}
	var order []string
	started := time.Now()
	for set := 0; set < cfg.Sets; set++ {
		for run := 0; run < cfg.Repeat; run++ {
			for _, w := range Workloads {
				seed := cfg.Seed + uint64(set*cfg.Repeat+run)
				cmd := exec.Command(exe, "-workload", w, "-seed", strconv.FormatUint(seed, 10),
					"-seconds", strconv.FormatFloat(cfg.Seconds, 'g', -1, 64), "-tmp", cfg.TmpDir, "-all")
				var out, stderr bytes.Buffer
				cmd.Stdout, cmd.Stderr = &out, &stderr
				if err := cmd.Run(); err != nil {
					return "", fmt.Errorf("bench: noise run of %s seed %d: %w\n%s", w, seed, err, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct bool              `json:"correct"`
					Metrics map[string]Metric `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					return "", fmt.Errorf("bench: noise run of %s seed %d printed no result: %w", w, seed, err)
				}
				if !res.Correct {
					return "", fmt.Errorf("bench: noise run of %s seed %d failed its checks", w, seed)
				}
				for _, d := range EndToEnd {
					key := w + "/" + d.Name
					row := rows[key]
					if row == nil {
						row = &noiseRow{Workload: w, Metric: d.Name, Sets: make([][]float64, cfg.Sets), Raw: make([][]float64, cfg.Sets)}
						rows[key] = row
						order = append(order, key)
					}
					row.Sets[set] = append(row.Sets[set], res.Metrics[d.Name].Value)
					if raw, ok := res.Metrics["raw."+d.Name]; ok {
						row.Raw[set] = append(row.Raw[set], raw.Value)
					}
				}
				fmt.Fprintf(log, "set %d run %d %s seed %d at %.0f s: %s\n", set+1, run+1, w, seed, time.Since(started).Seconds(), lines[len(lines)-1])
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "# Run-to-run noise of sommperf\n\n")
	fmt.Fprintf(&b, "%d sets of %d runs per workload, %g s measured per run, seeds from %d, every run a fresh process, workloads taking turns.\n",
		cfg.Sets, cfg.Repeat, cfg.Seconds, cfg.Seed)
	fmt.Fprintf(&b, "`spread` is the distance between the quartiles as a share of the median (Python's `statistics.quantiles(v, n=4)`); ")
	fmt.Fprintf(&b, "`raw` is the same for the uncorrected twin of a timing metric; `shift` is how much worse the last set's median is than the first's ")
	fmt.Fprintf(&b, "(negative: better). A row is `ok` when every spread and the shift stay within the bound; `corr > raw` marks a row on which, ")
	fmt.Fprintf(&b, "in some set, speed correction left a wider spread than it found.\n\n")
	fmt.Fprintf(&b, "| workload | metric | median (set 1) | spread per set | raw spread per set | shift | bound | | |\n|---|---|---|---|---|---|---|---|---|\n")
	bad, wider, timing := 0, 0, 0
	for _, key := range order {
		row := rows[key]
		bound := cfg.Bounds[row.Metric]
		var spreads, raws []string
		worst, mark := 0.0, ""
		for s := range row.Sets {
			sp := spread(row.Sets[s])
			worst = max(worst, sp)
			spreads = append(spreads, fmt.Sprintf("%.1f%%", 100*sp))
			if len(row.Raw[s]) > 0 {
				raw := spread(row.Raw[s])
				raws = append(raws, fmt.Sprintf("%.1f%%", 100*raw))
				if sp > raw {
					mark = "corr > raw"
				}
			}
		}
		if len(raws) > 0 {
			timing++
		}
		if mark != "" {
			wider++
		}
		first, last := stats.Percentile(row.Sets[0], 50), stats.Percentile(row.Sets[len(row.Sets)-1], 50)
		shift := (last - first) / first
		if bound.Better == "higher" {
			shift = -shift
		}
		verdict := "ok"
		// setup_s is exempt from the spread rule, not from the shift rule.
		if (worst > bound.Bound && row.Metric != "setup_s") || shift > bound.Bound {
			verdict = "**over**"
			bad++
		}
		fmt.Fprintf(&b, "| %s | %s | %.6g %s | %s | %s | %+.1f%% | %.0f%% | %s | %s |\n", row.Workload, row.Metric, first, bound.Unit,
			strings.Join(spreads, " "), strings.Join(raws, " "), 100*shift, 100*bound.Bound, verdict, mark)
	}
	fmt.Fprintf(&b, "\n%d of %d rows over their bound; %d of %d timing rows with a corrected spread above the raw one in some set.\n", bad, len(order), wider, timing)
	return b.String(), nil
}
