package sommelier

import (
	"sommelier/internal/catalog"
	"sommelier/internal/dataset"
	"sommelier/internal/equiv"
	"sommelier/internal/obs"
)

// Option configures an Engine. Options compose left to right; later
// options win. This is the engine's only configuration surface.
type Option func(*engineConfig)

// engineConfig is the resolved engine configuration: the catalog's
// config plus the engine-level observer handle.
type engineConfig struct {
	cat catalog.Config
	obs *obs.Observer
	// queryWorkers bounds QueryBatchContext's execution pool; 0 means
	// runtime.GOMAXPROCS(0).
	queryWorkers int
}

// WithSeed sets the seed driving every random choice; equal seeds give
// identical indexes and results, at any worker count.
func WithSeed(seed uint64) Option {
	return func(c *engineConfig) { c.cat.Seed = seed }
}

// WithValidationSize sets the per-task probe dataset size used for
// empirical equivalence measurement (default 300).
func WithValidationSize(n int) Option {
	return func(c *engineConfig) { c.cat.ValidationSize = n }
}

// WithBound selects the generalization-bound mode: on (default) for
// dataset-independent scores, off for testing-only scores.
func WithBound(mode equiv.BoundMode) Option {
	return func(c *engineConfig) { c.cat.Bound = mode }
}

// WithSegments toggles model-segment analysis during indexing — the
// slower, higher-recall mode (§4.2). Off by default.
func WithSegments(enabled bool) Option {
	return func(c *engineConfig) { c.cat.Segments = enabled }
}

// WithSegmentMinLen sets the minimum common-segment length considered.
func WithSegmentMinLen(n int) Option {
	return func(c *engineConfig) { c.cat.SegmentMinLen = n }
}

// WithSampleSize overrides the semantic index's pairwise sample count
// (the paper uses 5).
func WithSampleSize(n int) Option {
	return func(c *engineConfig) { c.cat.SampleSize = n }
}

// WithIndexWorkers bounds the indexing pipeline's concurrency: how many
// pairwise analyses and profile measurements run at once during
// RegisterContext and IndexAllContext. Zero means
// runtime.GOMAXPROCS(0). The worker count never changes indexing
// results — only how fast they arrive.
func WithIndexWorkers(n int) Option {
	return func(c *engineConfig) { c.cat.Workers = n }
}

// WithQueryWorkers bounds how many queries of one QueryBatchContext
// batch execute concurrently. Zero means runtime.GOMAXPROCS(0). The
// worker count never changes batch results — only how fast they
// arrive; every query still runs its own full pipeline against the
// batch's shared snapshot.
func WithQueryWorkers(n int) Option {
	return func(c *engineConfig) { c.queryWorkers = n }
}

// WithCustomValidation uses the dataset instead of generated probe data
// for models whose input shape matches (the "custom" bound knob of
// §5.5).
func WithCustomValidation(d *dataset.Dataset) Option {
	return func(c *engineConfig) { c.cat.CustomValidation = d }
}

// WithObserver attaches an observability handle: the engine reports
// index-stage timings, query-stage spans, and worker occupancy through
// it, and daemons serve its snapshot at /v1/metrics. Without this
// option the engine creates a private wall-clock observer, so metrics
// are always available via Engine.Observer(); pass a shared observer to
// aggregate engine, hub, and serving metrics into one snapshot, or one
// with an obs.TickClock for deterministic trace output in tests.
func WithObserver(o *obs.Observer) Option {
	return func(c *engineConfig) { c.obs = o }
}
