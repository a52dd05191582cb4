// Package catalog owns Sommelier's index state: the semantic index
// (§5.2), the resource-profile table (§5.3's exact side — what stage 2
// of a query reads), and the default-reference table, behind a
// copy-on-write snapshot scheme. Writers — the staged
// indexing pipeline in pipeline.go — mutate the structures under a
// single writer lock and publish an immutable Snapshot after each
// commit; readers load the current snapshot with one atomic pointer
// read and never contend with writers or each other.
package catalog

import (
	"fmt"
	"maps"
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
	// LatencyTable overrides the per-operator latency table.
	LatencyTable resource.LatencyTable
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

// Catalog is the write side of the index state plus the published
// read-side snapshot.
type Catalog struct {
	cfg      Config
	profiler *resource.Profiler
	pairs    *pairAnalyzer
	// analyze is pairs.analyze or the injected Config.Analyzer.
	analyze func(*plannedPair) (index.AnalysisResult, error)
	obs     *obs.Observer
	// sema bounds concurrent analysis/profiling work across all
	// indexing calls on this catalog.
	sema chan struct{}

	mu          sync.Mutex
	sem         *index.SemanticIndex        // guarded by mu
	profiles    map[string]resource.Profile // guarded by mu
	defaultRefs map[string]string           // guarded by mu
	// evidence caches what observing committed models has shown; a
	// missing entry is observed again when next sampled. The catalog
	// has no removal, so an ID here is always the committed model.
	evidence map[evidenceKey]*equiv.Evidence // guarded by mu

	snap atomic.Pointer[Snapshot]
}

// New creates an empty catalog.
func New(cfg Config) *Catalog {
	c := &Catalog{
		cfg:         cfg,
		obs:         cfg.Observer,
		pairs:       newPairAnalyzer(cfg),
		profiler:    resource.NewProfiler(cfg.LatencyTable),
		sema:        make(chan struct{}, cfg.workers()),
		sem:         index.NewSemanticIndex(cfg.Seed + 1),
		profiles:    make(map[string]resource.Profile),
		defaultRefs: make(map[string]string),
		evidence:    make(map[evidenceKey]*equiv.Evidence),
	}
	if cfg.SampleSize > 0 {
		c.sem.SampleSize = cfg.SampleSize
	}
	c.analyze = c.pairs.analyze
	if a := cfg.Analyzer; a != nil {
		c.analyze = func(p *plannedPair) (index.AnalysisResult, error) { return a.Analyze(p.ref, p.cand) }
	}
	c.registerGauges()
	c.mu.Lock()
	c.publishLocked()
	c.mu.Unlock()
	return c
}

// registerGauges folds the index sizes into the unified snapshot as
// snapshot-time callbacks — no write-path bookkeeping, the gauges read
// the live structures under the writer lock when asked.
func (c *Catalog) registerGauges() {
	reg := c.obs.Registry()
	if reg == nil {
		return
	}
	semStat := func() index.Stats {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.sem.Stats()
	}
	reg.GaugeFunc("catalog_semantic_models", func() int64 { return int64(semStat().Models) })
	reg.GaugeFunc("catalog_semantic_candidates", func() int64 { return int64(semStat().Candidates) })
	reg.GaugeFunc("catalog_semantic_derived", func() int64 { return int64(semStat().Derived) })
	reg.GaugeFunc("catalog_semantic_synthesized", func() int64 { return int64(semStat().Synthesized) })
	reg.GaugeFunc("catalog_resource_profiles", func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return int64(len(c.profiles))
	})
	reg.GaugeFunc("catalog_evidence_entries", func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return int64(len(c.evidence))
	})
}

// Profiler returns the catalog's resource profiler (safe for concurrent
// use), so callers can re-profile models under non-default execution
// settings.
func (c *Catalog) Profiler() *resource.Profiler { return c.profiler }

// SetDefaultReference sets the reference model used when a query names
// a task category instead of a model (§5.1).
func (c *Catalog) SetDefaultReference(task, id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.sem.Contains(id) {
		return fmt.Errorf("catalog: %q is not indexed", id)
	}
	c.defaultRefs[task] = id
	c.publishLocked()
	return nil
}

// noteDefaultRefLocked makes the first indexed model of a task category
// that category's default reference. Callers hold c.mu.
func (c *Catalog) noteDefaultRefLocked(id string, m *graph.Model) {
	task := string(m.Task)
	if _, ok := c.defaultRefs[task]; !ok {
		c.defaultRefs[task] = id
	}
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
	if !c.sem.Contains(id) {
		return fmt.Errorf("catalog: %q is not indexed", id)
	}
	others := make([]string, 0, len(levels))
	for other := range levels {
		others = append(others, other)
	}
	sort.Strings(others)
	for _, other := range others {
		if !c.sem.Contains(other) {
			return fmt.Errorf("catalog: annotation references unindexed model %q", other)
		}
	}
	var own []index.Candidate
	for _, other := range others {
		lvl := levels[other]
		own = append(own, index.Candidate{ID: other, Level: lvl, Kind: index.KindWhole})
		if err := c.sem.InsertPrecomputed(other, []index.Candidate{
			{ID: id, Level: lvl, Kind: index.KindWhole},
		}); err != nil {
			return err
		}
	}
	if len(own) > 0 {
		if err := c.sem.InsertPrecomputed(id, own); err != nil {
			return err
		}
	}
	c.publishLocked()
	return nil
}

// MemoryBytes estimates the in-memory footprints of the semantic index
// and of the profile table (ID bytes plus one Profile per model).
func (c *Catalog) MemoryBytes() (semantic, res int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id := range c.profiles {
		res += int64(len(id)) + 32
	}
	return c.sem.MemoryBytes(), res
}

// Export captures the catalog's serializable state (§5.5 persistence):
// the semantic snapshot, the profile table, and the default-reference
// table.
func (c *Catalog) Export() (index.SemanticSnapshot, index.ResourceSnapshot, map[string]string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sem.Snapshot(), index.ResourceSnapshot{Profiles: maps.Clone(c.profiles)}, maps.Clone(c.defaultRefs)
}

// Restore replaces the catalog's contents with previously exported
// state. resolve maps model IDs back to graphs (normally repo.Load) so
// future insertions can analyze against restored entries.
func (c *Catalog) Restore(sem index.SemanticSnapshot, res index.ResourceSnapshot,
	refs map[string]string, resolve func(id string) (*graph.Model, error)) error {
	if _, ok := res.Profiles[""]; ok {
		return fmt.Errorf("catalog: resource snapshot has a profile without an ID")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.sem.Restore(sem, resolve); err != nil {
		return err
	}
	// Copied into fresh maps (never nil): later commits insert into them.
	c.profiles = make(map[string]resource.Profile, len(res.Profiles))
	maps.Copy(c.profiles, res.Profiles)
	c.defaultRefs = make(map[string]string, len(refs))
	maps.Copy(c.defaultRefs, refs)
	clear(c.evidence) // restored entries are observed again when sampled
	c.publishLocked()
	return nil
}
