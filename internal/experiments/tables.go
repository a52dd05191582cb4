package experiments

import (
	"fmt"
	"time"

	"sommelier/internal/dataset"
	"sommelier/internal/equiv"
	"sommelier/internal/graph"
	"sommelier/internal/index"
	"sommelier/internal/resource"
	"sommelier/internal/stats"
	"sommelier/internal/tensor"
	"sommelier/internal/zoo"
)

// ---------------------------------------------------------------------
// Table 2: latency of functional equivalence detection.
// ---------------------------------------------------------------------

// Table2Config scales the timing experiment. Scale multiplies the
// paper's parameter counts (62M/60M/143M/340M); the default 0.02 keeps
// the bench fast while preserving the size ordering, and cmd/sommbench
// can run closer to full scale.
type Table2Config struct {
	Scale float64
	Seed  uint64
}

// Table2Row is one model's timing.
type Table2Row struct {
	Model     string
	Params    int64
	SegmentMS float64
	WholeMS   float64
}

// Table2Result carries all four rows.
type Table2Result struct {
	Scale float64
	Rows  []Table2Row
}

// RunTable2 builds models at (scaled) paper sizes and times the segment
// and whole-model equivalence checks against a lightly perturbed copy.
func RunTable2(cfg Table2Config) (*Table2Result, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = 0.02
	}
	specs := []struct {
		name   string
		params int64
		depth  int
	}{
		{"alexnetish", 62_000_000, 8},
		{"resnetish", 60_000_000, 16},
		{"vgg19ish", 143_000_000, 19},
		{"bertish", 340_000_000, 24},
	}
	res := &Table2Result{Scale: cfg.Scale}
	for i, spec := range specs {
		target := int64(float64(spec.params) * cfg.Scale)
		m, err := zoo.PaperScaleDense(spec.name, target, spec.depth, cfg.Seed+uint64(i))
		if err != nil {
			return nil, err
		}
		twin := zoo.Perturb(m, spec.name+"-twin", 0.02, cfg.Seed+100+uint64(i))

		// Whole-model check (IO check + empirical diff + bound).
		val := &dataset.Dataset{
			Name:   "t2",
			Inputs: dataset.RandomImages(32, m.InputShape, cfg.Seed+200),
		}
		start := time.Now()
		if _, err := equiv.CheckWhole(m, twin, val, equiv.Options{Epsilon: 0.1}); err != nil {
			return nil, err
		}
		wholeMS := float64(time.Since(start).Microseconds()) / 1000

		// Segment check (extraction + propagation + replacement).
		start = time.Now()
		pairs, err := equiv.CommonSegments(m, twin, 3)
		if err != nil {
			return nil, err
		}
		if _, err := equiv.AssessReplacement(m, pairs, equiv.Options{
			Epsilon: 0.1, Seed: cfg.Seed, ProbeCount: 4,
		}); err != nil {
			return nil, err
		}
		segMS := float64(time.Since(start).Microseconds()) / 1000

		res.Rows = append(res.Rows, Table2Row{
			Model:     spec.name,
			Params:    m.ParamCount(),
			SegmentMS: segMS,
			WholeMS:   wholeMS,
		})
	}
	return res, nil
}

// Report renders the paper's Table 2 layout.
func (r *Table2Result) Report() Report {
	rep := Report{ID: "table2", Title: fmt.Sprintf("Time of functional equivalence check (model scale %.0f%% of paper)", r.Scale*100)}
	header := "metric          "
	for _, row := range r.Rows {
		header += fmt.Sprintf("%14s", row.Model)
	}
	rep.Lines = append(rep.Lines, header)
	paramsLine, segLine, wholeLine := "params (M)      ", "time (segment)  ", "time (whole)    "
	for _, row := range r.Rows {
		paramsLine += fmt.Sprintf("%14.1f", float64(row.Params)/1e6)
		segLine += fmt.Sprintf("%12.0fms", row.SegmentMS)
		wholeLine += fmt.Sprintf("%12.0fms", row.WholeMS)
	}
	rep.Lines = append(rep.Lines, paramsLine, segLine, wholeLine)
	rep.Lines = append(rep.Lines, "(paper: 1.9s..22.9s at full scale; time grows with parameter count, offline cost)")
	return rep
}

// ---------------------------------------------------------------------
// Table 3: run-time query latency vs number of records.
// ---------------------------------------------------------------------

// Table3Config scales the latency experiment.
type Table3Config struct {
	Sizes   []int
	Queries int
	Seed    uint64
}

// DefaultTable3Config mirrors the paper's 100 → 100K sweep, 20 queries
// per point.
func DefaultTable3Config() Table3Config {
	return Table3Config{Sizes: []int{100, 1000, 10000, 100000}, Queries: 20, Seed: 0x7a3}
}

// Table3Result reports the median latency in milliseconds per predicate
// kind: a lookup takes ~0.1 ms, so one descheduled query would own a
// mean.
type Table3Result struct {
	Sizes      []int
	ResourceMS []float64
	SemanticMS []float64
	BothMS     []float64
}

// RunTable3 populates the two index structures with synthetic records at
// each size and times resource-only, semantic-only, and combined
// lookups. Records are synthetic because the experiment measures index
// data-structure latency, not analysis quality (the paper does the
// same: "we prepare the model repository with different numbers of
// models").
func RunTable3(cfg Table3Config) (*Table3Result, error) {
	if cfg.Queries <= 0 {
		return nil, fmt.Errorf("experiments: table 3 needs at least one query per size, got %d", cfg.Queries)
	}
	res := &Table3Result{Sizes: cfg.Sizes}
	for _, n := range cfg.Sizes {
		rng := tensor.NewRNG(cfg.Seed + uint64(n))
		// Resource index with n profiles.
		ri := index.NewResourceIndex(cfg.Seed)
		for i := 0; i < n; i++ {
			p := resource.Profile{
				FLOPs:       int64(1e6 + rng.Float64()*1e10),
				MemoryBytes: int64(1e5 + rng.Float64()*1e9),
				LatencyMS:   0.1 + rng.Float64()*100,
			}
			if err := ri.Insert(fmt.Sprintf("m%d", i), p); err != nil {
				return nil, err
			}
		}
		// Semantic index: one reference entry with n candidates, the
		// shape a populated hashtable entry has at query time.
		si := index.NewSemanticIndex(cfg.Seed)
		si.SampleSize = 0
		ref := index.Entry{ID: "ref", Model: tinyIndexModel(cfg.Seed)}
		if err := si.Insert(ref, nopAnalyzer{}); err != nil {
			return nil, err
		}
		if err := si.InsertPrecomputed("ref", syntheticCandidates(n, rng)); err != nil {
			return nil, err
		}

		budget := index.Budget{
			MaxMemoryBytes: int64(5e8),
			MaxFLOPs:       int64(5e9),
			MaxLatencyMS:   50,
		}
		// Warm both structures so the timings below measure steady-state
		// lookups, not first-touch cache misses.
		if _, err := ri.Candidates(budget, 0); err != nil {
			return nil, err
		}
		if _, err := si.Lookup("ref", 0.99); err != nil {
			return nil, err
		}

		var resMS, semMS, bothMS []float64
		for q := 0; q < cfg.Queries; q++ {
			start := time.Now()
			if _, err := ri.Candidates(budget, 0); err != nil {
				return nil, err
			}
			resMS = append(resMS, ms(start))

			start = time.Now()
			if _, err := si.Lookup("ref", 0.99); err != nil {
				return nil, err
			}
			semMS = append(semMS, ms(start))

			start = time.Now()
			ids, err := ri.Candidates(budget, 0)
			if err != nil {
				return nil, err
			}
			cands, err := si.Lookup("ref", 0.99)
			if err != nil {
				return nil, err
			}
			intersect(ids, cands)
			bothMS = append(bothMS, ms(start))
		}
		res.ResourceMS = append(res.ResourceMS, stats.Percentile(resMS, 50))
		res.SemanticMS = append(res.SemanticMS, stats.Percentile(semMS, 50))
		res.BothMS = append(res.BothMS, stats.Percentile(bothMS, 50))
	}
	return res, nil
}

func ms(start time.Time) float64 {
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

func intersect(ids []string, cands []index.Candidate) int {
	set := make(map[string]bool, len(ids))
	for _, id := range ids {
		set[id] = true
	}
	n := 0
	for _, c := range cands {
		if set[c.ID] {
			n++
		}
	}
	return n
}

func syntheticCandidates(n int, rng *tensor.RNG) []index.Candidate {
	out := make([]index.Candidate, n)
	for i := range out {
		out[i] = index.Candidate{ID: fmt.Sprintf("m%d", i), Level: rng.Float64()}
	}
	return out
}

// Report renders the paper's Table 3 layout.
func (r *Table3Result) Report() Report {
	rep := Report{ID: "table3", Title: "Run-time query latency (ms)"}
	header := "predicate   "
	for _, n := range r.Sizes {
		header += fmt.Sprintf("%10d", n)
	}
	rep.Lines = append(rep.Lines, header)
	row := func(name string, xs []float64) string {
		l := fmt.Sprintf("%-12s", name)
		for _, v := range xs {
			l += fmt.Sprintf("%10.3f", v)
		}
		return l
	}
	rep.Lines = append(rep.Lines, row("resource", r.ResourceMS))
	rep.Lines = append(rep.Lines, row("semantic", r.SemanticMS))
	rep.Lines = append(rep.Lines, row("both", r.BothMS))
	rep.Lines = append(rep.Lines, "(paper: semantic lookups orders of magnitude cheaper than LSH; ~6ms at 100K)")
	return rep
}

// ---------------------------------------------------------------------
// Table 4: memory footprint of the indices.
// ---------------------------------------------------------------------

// Table4Config scales the footprint experiment.
type Table4Config struct {
	Sizes []int
	Seed  uint64
}

// DefaultTable4Config mirrors the paper's 10 → 100K sweep.
func DefaultTable4Config() Table4Config {
	return Table4Config{Sizes: []int{10, 100, 1000, 10000, 100000}, Seed: 0x7a4}
}

// Table4Result reports each index's footprint in MB per size.
type Table4Result struct {
	Sizes      []int
	ResourceMB []float64
	SemanticMB []float64
}

// RunTable4 populates both indices with synthetic records and reports
// their estimated in-memory footprints.
func RunTable4(cfg Table4Config) (*Table4Result, error) {
	res := &Table4Result{Sizes: cfg.Sizes}
	for _, n := range cfg.Sizes {
		rng := tensor.NewRNG(cfg.Seed + uint64(n))
		ri := index.NewResourceIndex(cfg.Seed)
		for i := 0; i < n; i++ {
			p := resource.Profile{
				FLOPs:       int64(rng.Float64() * 1e10),
				MemoryBytes: int64(rng.Float64() * 1e9),
				LatencyMS:   rng.Float64() * 100,
			}
			if err := ri.Insert(fmt.Sprintf("m%d", i), p); err != nil {
				return nil, err
			}
		}
		si := index.NewSemanticIndex(cfg.Seed)
		si.SampleSize = 0
		if err := si.Insert(index.Entry{ID: "ref", Model: tinyIndexModel(cfg.Seed)}, nopAnalyzer{}); err != nil {
			return nil, err
		}
		// Each model keeps a candidate list; a populated repository has
		// n entries each with a bounded list. Emulate with n candidates
		// spread over the reference entry (the dominant cost is the
		// candidate records themselves).
		if err := si.InsertPrecomputed("ref", syntheticCandidates(n, rng)); err != nil {
			return nil, err
		}
		res.ResourceMB = append(res.ResourceMB, float64(ri.MemoryBytes())/(1<<20))
		res.SemanticMB = append(res.SemanticMB, float64(si.MemoryBytes())/(1<<20))
	}
	return res, nil
}

// Report renders the paper's Table 4 layout.
func (r *Table4Result) Report() Report {
	rep := Report{ID: "table4", Title: "Memory footprint (MB) of the indices"}
	header := "# models    "
	for _, n := range r.Sizes {
		header += fmt.Sprintf("%10d", n)
	}
	rep.Lines = append(rep.Lines, header)
	row := func(name string, xs []float64) string {
		l := fmt.Sprintf("%-12s", name)
		for _, v := range xs {
			l += fmt.Sprintf("%10.3f", v)
		}
		return l
	}
	rep.Lines = append(rep.Lines, row("resource", r.ResourceMB))
	rep.Lines = append(rep.Lines, row("semantic", r.SemanticMB))
	rep.Lines = append(rep.Lines, "(paper: mostly under 80 MB even at 100K models — metadata only, models stay on disk)")
	return rep
}

// tinyIndexModel builds the smallest valid model, used as a placeholder
// entry for index-structure experiments.
func tinyIndexModel(seed uint64) *graph.Model {
	b := graph.NewBuilder("tiny", graph.TaskClassification, tensor.Shape{2}, tensor.NewRNG(seed))
	b.Dense(2)
	b.Softmax()
	return b.MustBuild()
}

// nopAnalyzer satisfies index.Analyzer without doing analysis; the index
// benchmarks measure data-structure costs, not analysis costs.
type nopAnalyzer struct{}

func (nopAnalyzer) Analyze(ref, cand index.Entry) (index.AnalysisResult, error) {
	return index.AnalysisResult{}, nil
}
