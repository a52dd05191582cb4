package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// MetricDef names one metric of the benchmark; the lists below are the
// same ones BENCHMARK.json carries (a test compares them).
type MetricDef struct {
	Name, Unit string
}

// EndToEnd lists the end-to-end metrics every workload reports.
var EndToEnd = []MetricDef{
	{"setup_s", "s"},
	{"index_models_per_s", "models/s"},
	{"register_p50_ms", "ms"},
	{"query_p50_us", "us"},
	{"query_p95_us", "us"},
	{"query_per_s", "1/s"},
	{"batch_query_per_s", "1/s"},
	{"load_p50_ms", "ms"},
	{"index_alloc_mb_per_model", "MB"},
	{"query_alloc_kb", "kB"},
	{"index_bytes_per_model", "B"},
	{"stored_bytes_ratio", "ratio"},
	{"wire_bytes_ratio", "ratio"},
	{"query_oracle_recall", "ratio"},
	{"success_ratio", "ratio"},
}

// PerLayer lists the per-layer metrics every traced run reports.
var PerLayer = []MetricDef{
	// substrate
	{"tensor.matmul_us", "us"}, {"nn.forward_us", "us"}, {"nn.agreement_ms", "ms"},
	{"graph.encode_us", "us"}, {"graph.decode_us", "us"},
	// analysis
	{"equiv.check_pair_ms", "ms"}, {"resource.measure_us", "us"}, {"resource.measure_exec_us", "us"},
	// catalog
	{"catalog.index_ms", "ms"}, {"catalog.index_growth_ratio", "ratio"},
	{"catalog.batch_speedup", "ratio"}, {"catalog.tasks_per_model", "count"},
	// index, lsh, query
	{"index.lookup_us", "us"}, {"index.topk_us", "us"},
	{"index.resource_candidates_us", "us"}, {"index.resource_exact_us", "us"}, {"index.resource_recall", "ratio"},
	{"index.semantic_bytes_per_model", "B"}, {"index.resource_bytes_per_model", "B"},
	{"lsh.insert_us", "us"}, {"lsh.query_us", "us"}, {"lsh.query_exact_us", "us"}, {"lsh.candidates_per_query", "count"},
	{"query.parse_us", "us"},
	// engine
	{"engine.stage_parse_us", "us"}, {"engine.stage_candidates_us", "us"},
	{"engine.stage_filter_us", "us"}, {"engine.stage_rank_us", "us"},
	{"engine.shape_sim_p50_us", "us"}, {"engine.shape_budget_rel_p50_us", "us"}, {"engine.shape_budget_abs_p50_us", "us"},
	{"engine.shape_range_p50_us", "us"}, {"engine.shape_exec_p50_us", "us"}, {"engine.shape_task_p50_us", "us"},
	{"engine.examined_per_result", "count"}, {"engine.results_per_query", "count"}, {"engine.query_allocs", "count"},
	{"engine.batch_speedup", "ratio"}, {"engine.query_p99_us", "us"},
	{"engine.save_indexes_ms", "ms"}, {"engine.load_indexes_ms", "ms"}, {"engine.index_snapshot_bytes", "B"},
	// storage
	{"chunk.split_mb_per_s", "MB/s"}, {"chunk.delta_encode_us", "us"},
	{"cas.encode_ms", "ms"}, {"cas.hydrate_ms", "ms"}, {"cas.dedup_hit_ratio", "ratio"}, {"cas.delta_refs_per_model", "count"},
	{"repo.publish_mem_us", "us"}, {"repo.publish_disk_ms", "ms"},
	{"repo.load_cold_ms", "ms"}, {"repo.load_warm_us", "us"}, {"repo.open_ms", "ms"},
	// distribution
	{"hub.publish_ms", "ms"}, {"hub.load_ms", "ms"}, {"hub.query_us", "us"}, {"hub.query_batch_us", "us"},
	{"hub.wire_bytes_per_model", "B"}, {"hub.chunk_puts_per_model", "count"},
	{"hub.cache_hit_ratio", "ratio"}, {"hub.retries", "count"},
	{"cluster.publish_ms", "ms"}, {"cluster.coord_query_us", "us"}, {"cluster.coord_overhead_us", "us"},
	{"cluster.scatter_width", "count"}, {"cluster.ring_skew", "ratio"}, {"cluster.full_ratio", "ratio"},
	// harness
	{"machine.ref_us", "us"}, {"machine.probe_share", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	{"raw.index_models_per_s", "models/s"}, {"raw.register_p50_ms", "ms"},
	{"raw.query_p50_us", "us"}, {"raw.query_p95_us", "us"}, {"raw.query_per_s", "1/s"},
	{"raw.batch_query_per_s", "1/s"}, {"raw.load_p50_ms", "ms"},
}

// Workloads lists the workload names in suite order.
var Workloads = []string{"ingest", "query_mix", "churn", "hub_cluster"}

// Report is one run's outcome: metrics by name, free-form notes
// (population sizes, sample counts) and the hard checks that ran.
type Report struct {
	Workload string
	Seed     uint64
	Traced   bool
	Metrics  map[string]Metric
	Notes    []string
	Checks   map[string]int
	Problems []string
	// Attempted and Failed count operations: calls that errored, were
	// refused or failed a check, over calls made.
	Attempted, Failed int64
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport(cfg Config) *Report {
	return &Report{Workload: cfg.Workload, Seed: cfg.Seed, Traced: cfg.Trace, Metrics: map[string]Metric{}}
}

// Set records a metric.
func (r *Report) Set(name string, value float64, unit string) {
	r.Metrics[name] = Metric{Value: value, Unit: unit}
}

// Notef appends a note line.
func (r *Report) Notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Correct reports whether every hard check held.
func (r *Report) Correct() bool { return len(r.Problems) == 0 }

// finish copies the harness tallies into the report.
func (r *Report) finish(h *Harness) {
	r.Attempted, r.Failed = h.Attempted, h.Failed
	r.Set("success_ratio", 1-float64(h.Failed)/float64(h.Attempted), "ratio")
	r.Checks, r.Problems = h.checks, h.problems
}

// WriteText prints every metric by name with its unit, then the notes
// and the checks.
func (r *Report) WriteText(w io.Writer) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s seed=%d (%s)\n", r.Workload, r.Seed, mode)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	// End-to-end metrics first, in their canonical order.
	seen := map[string]bool{}
	for _, d := range EndToEnd {
		if m, ok := r.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "  %-32s %14.6g %s\n", d.Name, m.Value, m.Unit)
			seen[d.Name] = true
		}
	}
	for _, n := range names {
		if !seen[n] {
			m := r.Metrics[n]
			fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, m.Value, m.Unit)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
	checks := make([]string, 0, len(r.Checks))
	for c := range r.Checks {
		checks = append(checks, c)
	}
	sort.Strings(checks)
	for _, c := range checks {
		fmt.Fprintf(w, "  check %-28s ran %d times\n", c, r.Checks[c])
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  FAILED %s\n", p)
	}
	fmt.Fprintf(w, "  operations attempted=%d failed=%d\n", r.Attempted, r.Failed)
}

// WriteResultLine prints the one-line JSON result the benchmark
// contract asks for, carrying exactly the metrics in defs; nil defs
// means every metric the run reported.
func (r *Report) WriteResultLine(w io.Writer, defs []MetricDef) error {
	if defs == nil {
		for name, m := range r.Metrics {
			defs = append(defs, MetricDef{name, m.Unit})
		}
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{r.Correct(), r.Attempted, r.Failed, map[string]Metric{}}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok || m.Unit != d.Unit {
			return fmt.Errorf("bench: workload %s did not report %s in %s", r.Workload, d.Name, d.Unit)
		}
		out.Metrics[d.Name] = m
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
