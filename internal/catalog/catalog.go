// Package catalog owns Sommelier's index state: the semantic index
// (§5.2), the resource footprint table (§5.3's exact side — what stage
// 2 of a query derives every profile from), and the default-reference
// table. All of it that can be read lives once, in the published
// Snapshot: an immutable value behind an atomic pointer, which readers
// load without contending with writers or each other. Writers — the
// staged indexing pipeline in pipeline.go, Annotate,
// SetDefaultReference, Restore — take one lock among themselves and
// publish the next snapshot, which holds new copies of the candidate
// lists and tables the commit changed and shares everything else with
// the one before.
package catalog

import (
	"fmt"
	"maps"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"sommelier/internal/dataset"
	"sommelier/internal/equiv"
	"sommelier/internal/graph"
	"sommelier/internal/index"
	"sommelier/internal/obs"
	"sommelier/internal/resource"
)

// Config carries everything the catalog needs to analyze, profile, and
// index models. Fields mirror the engine's public Options (§5.5).
type Config struct {
	// Seed drives every random choice; equal seeds give identical
	// catalogs regardless of indexing parallelism.
	Seed uint64
	// SampleSize overrides the semantic index's pairwise sample count.
	SampleSize int
	// Workers bounds the indexing pipeline's analysis concurrency
	// (default runtime.GOMAXPROCS(0)).
	Workers int
	// ValidationSize is the per-shape probe dataset size (default 300).
	ValidationSize int
	// Bound selects the generalization-bound mode.
	Bound equiv.BoundMode
	// Segments enables segment-replacement analysis (§4.2).
	Segments bool
	// SegmentMinLen is the minimum common-segment length considered.
	SegmentMinLen int
	// CustomValidation replaces generated probe data for matching
	// input shapes.
	CustomValidation *dataset.Dataset
	// Analyzer overrides how a planned pair is measured; nil selects
	// the real equiv-backed comparison. Tests inject failing or counting
	// stubs; the rest of the pipeline, observe stage included, still runs.
	Analyzer index.Analyzer
	// Observer receives per-stage pipeline timings, spans, and worker
	// occupancy. Nil disables instrumentation. The catalog never reads
	// the wall clock itself (detcheck); all timing flows through the
	// observer's injected clock, so a deterministic clock keeps traces
	// reproducible.
	Observer *obs.Observer
}

func (c Config) validationSize() int {
	if c.ValidationSize <= 0 {
		return 300
	}
	return c.ValidationSize
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Catalog is the published snapshot plus what only writers need.
type Catalog struct {
	cfg      Config
	profiler *resource.Profiler
	pairs    *pairAnalyzer
	// analyze is pairs.analyze or the injected Config.Analyzer.
	analyze func(*plannedPair) (index.AnalysisResult, error)
	obs     *obs.Observer
	m       metrics
	// sema bounds concurrent analysis/profiling work across all
	// indexing calls on this catalog.
	sema chan struct{}

	// mu serializes writers; no read of the snapshot takes it.
	mu sync.Mutex
	// writer is the semantic index's write side: the sampling RNG, the
	// model graphs and the measured diffs. The version it writes is the
	// one each snapshot publishes, not a copy of it.
	writer *index.SemanticIndex // guarded by mu
	// evidence caches what observing committed models has shown; a
	// missing entry is observed again when next sampled. The catalog
	// has no removal, so an ID here is always the committed model.
	evidence map[evidenceKey]*equiv.Evidence // guarded by mu

	snap atomic.Pointer[Snapshot]
}

// metrics are the pipeline's metric handles, resolved once in New so a
// task or a stage updates them without the registry's lock. Without an
// observer every handle is nil, and a nil handle no-ops.
type metrics struct {
	busy *obs.Gauge // catalog_workers_busy
	// catalog_{tasks,observe,evidence_hits,index_canceled,index_errors,models_indexed}_total
	tasks, observed, evidenceHits, canceled, failed, indexed *obs.Counter
	plan, analyze, commit                                    *obs.Histogram // catalog_{plan,analyze,commit}_ms
	profile, observe, bound, pair                            taskKind
}

// taskKind is one kind of pool task: its span name and its
// catalog_<name>_ms histogram.
type taskKind struct {
	name string
	ms   *obs.Histogram
}

func newMetrics(o *obs.Observer) metrics {
	kind := func(name string) taskKind { return taskKind{name, o.Histogram("catalog_" + name + "_ms")} }
	return metrics{
		busy:         o.Gauge("catalog_workers_busy"),
		tasks:        o.Counter("catalog_tasks_total"),
		observed:     o.Counter("catalog_observe_total"),
		evidenceHits: o.Counter("catalog_evidence_hits_total"),
		canceled:     o.Counter("catalog_index_canceled_total"),
		failed:       o.Counter("catalog_index_errors_total"),
		indexed:      o.Counter("catalog_models_indexed_total"),
		plan:         o.Histogram("catalog_plan_ms"),
		analyze:      o.Histogram("catalog_analyze_ms"),
		commit:       o.Histogram("catalog_commit_ms"),
		profile:      kind("profile"),
		observe:      kind("observe"),
		bound:        kind("bound"),
		pair:         kind("pair"),
	}
}

// New creates an empty catalog.
func New(cfg Config) *Catalog {
	c := &Catalog{
		cfg:      cfg,
		obs:      cfg.Observer,
		m:        newMetrics(cfg.Observer),
		pairs:    newPairAnalyzer(cfg),
		profiler: resource.NewProfiler(nil),
		sema:     make(chan struct{}, cfg.workers()),
		writer:   index.NewSemanticIndex(cfg.Seed + 1),
		evidence: make(map[evidenceKey]*equiv.Evidence),
	}
	if cfg.SampleSize > 0 {
		c.writer.SampleSize = cfg.SampleSize
	}
	c.analyze = c.pairs.analyze
	if a := cfg.Analyzer; a != nil {
		c.analyze = func(p *plannedPair) (index.AnalysisResult, error) { return a.Analyze(p.ref, p.cand) }
	}
	c.mu.Lock()
	c.publishLocked(map[string]resource.Footprint{}, map[string]string{})
	c.mu.Unlock()
	c.registerGauges() // after the first publish: the gauges read the snapshot
	return c
}

// registerGauges folds the index sizes into the unified snapshot as
// snapshot-time callbacks — no write-path bookkeeping and no lock: each
// reads the published snapshot, whose Stats walks the index once however
// many gauges ask, and which carries the one count of writer state
// (catalog_evidence_entries) as of its publish.
func (c *Catalog) registerGauges() {
	reg := c.obs.Registry()
	if reg == nil {
		return
	}
	reg.GaugeFunc("catalog_semantic_models", func() int64 { return int64(c.Snapshot().Stats().Models) })
	reg.GaugeFunc("catalog_semantic_candidates", func() int64 { return int64(c.Snapshot().Stats().Candidates) })
	reg.GaugeFunc("catalog_semantic_derived", func() int64 { return int64(c.Snapshot().Stats().Derived) })
	reg.GaugeFunc("catalog_semantic_synthesized", func() int64 { return int64(c.Snapshot().Stats().Synthesized) })
	reg.GaugeFunc("catalog_resource_profiles", func() int64 { return int64(len(c.Snapshot().footprints)) })
	reg.GaugeFunc("catalog_evidence_entries", func() int64 { return int64(c.Snapshot().evidence) })
}

// SetDefaultReference sets the reference model used when a query names
// a task category instead of a model (§5.1).
func (c *Catalog) SetDefaultReference(task, id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.snap.Load()
	if !cur.Contains(id) {
		return fmt.Errorf("catalog: %q is not indexed", id)
	}
	refs := maps.Clone(cur.refs)
	refs[task] = id
	c.publishLocked(cur.footprints, refs)
	return nil
}

// Annotate records designer-supplied equivalence levels (§5.5) between
// an indexed model and other indexed models, symmetrically. The
// annotation commits atomically: every referenced ID is validated
// under the writer lock before any edge is applied, so a bad reference
// leaves the index untouched.
func (c *Catalog) Annotate(id string, levels map[string]float64) error {
	for other, lvl := range levels {
		if lvl < 0 || lvl > 1 {
			return fmt.Errorf("catalog: annotation level %g for %q outside [0,1]", lvl, other)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.snap.Load()
	if !cur.Contains(id) {
		return fmt.Errorf("catalog: %q is not indexed", id)
	}
	others := make([]string, 0, len(levels))
	for other := range levels {
		others = append(others, other)
	}
	sort.Strings(others)
	for _, other := range others {
		if !cur.Contains(other) {
			return fmt.Errorf("catalog: annotation references unindexed model %q", other)
		}
	}
	var own []index.Candidate
	for _, other := range others {
		lvl := levels[other]
		own = append(own, index.Candidate{ID: other, Level: lvl, Kind: index.KindWhole})
		if err := c.writer.InsertPrecomputed(other, []index.Candidate{
			{ID: id, Level: lvl, Kind: index.KindWhole},
		}); err != nil {
			return err
		}
	}
	if len(own) > 0 {
		if err := c.writer.InsertPrecomputed(id, own); err != nil {
			return err
		}
	}
	c.publishLocked(cur.footprints, cur.refs)
	return nil
}

// MemoryBytes estimates the in-memory footprints of the semantic index
// and of the footprint table (ID bytes plus one 32-byte Footprint per
// model).
func (c *Catalog) MemoryBytes() (semantic, res int64) {
	snap := c.Snapshot()
	for id := range snap.footprints {
		res += int64(len(id)) + 32
	}
	return snap.MemoryBytes(), res
}

// Export captures the catalog's serializable state (§5.5 persistence):
// the semantic snapshot, the footprint table, and the default-reference
// table. It is a writer as far as the lock goes: the measured diffs it
// copies are writer state.
func (c *Catalog) Export() (index.SemanticSnapshot, index.ResourceSnapshot, map[string]string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.snap.Load()
	return c.writer.Snapshot(), index.ResourceSnapshot{Footprints: maps.Clone(cur.footprints)}, maps.Clone(cur.refs)
}

// Restore replaces the catalog's contents with previously exported
// state. resolve maps model IDs back to graphs (normally repo.Load) so
// future insertions can analyze against restored entries. A footprint
// without an ID, with a negative count or with a negative or non-finite
// latency is refused before anything is replaced.
func (c *Catalog) Restore(sem index.SemanticSnapshot, res index.ResourceSnapshot,
	refs map[string]string, resolve func(id string) (*graph.Model, error)) error {
	if _, ok := res.Footprints[""]; ok {
		return fmt.Errorf("catalog: resource snapshot has a footprint without an ID")
	}
	bad := "" // the least offending ID, so the error names the same one every time
	for id, f := range res.Footprints {
		if (f.FLOPs < 0 || f.ParamBytes < 0 || f.PeakActivation < 0 ||
			!(f.LatencyNS >= 0 && f.LatencyNS <= math.MaxFloat64)) && (bad == "" || id < bad) {
			bad = id
		}
	}
	if bad != "" {
		return fmt.Errorf("catalog: footprint of %q is negative or not finite: %+v", bad, res.Footprints[bad])
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.writer.Restore(sem, resolve); err != nil {
		return err
	}
	// Copied into fresh maps (never nil): the caller keeps its own, and
	// later commits write to clones of these.
	footprints := make(map[string]resource.Footprint, len(res.Footprints))
	maps.Copy(footprints, res.Footprints)
	defaultRefs := make(map[string]string, len(refs))
	maps.Copy(defaultRefs, refs)
	clear(c.evidence) // restored entries are observed again when sampled
	c.publishLocked(footprints, defaultRefs)
	return nil
}
