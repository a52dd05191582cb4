package sommelier

import (
	"fmt"

	"sommelier/internal/catalog"
	"sommelier/internal/obs"
	"sommelier/internal/repo"
	"sommelier/internal/resource"
)

// Store is the repository surface the engine needs. *repo.Repository
// implements it; internal/faults.FlakyStore wraps one for failure
// testing.
type Store = repo.Store

// Engine is the Sommelier query engine: a facade over a Store (the
// model repository) and a catalog.Catalog (the index state). It is
// safe for concurrent use; queries never block on registration.
type Engine struct {
	cfg   engineConfig
	store Store
	cat   *catalog.Catalog
	obs   *obs.Observer
	qm    queryMetrics
}

// queryMetrics are the query path's metric handles, resolved once in
// NewEngine: a query updates each with one atomic operation instead of
// a lookup by name under the registry's lock.
type queryMetrics struct {
	queries, errors *obs.Counter // queries_total, query_errors_total
	// query_{total,parse,candidates,filter,rank,batch_total}_ms
	total, parse, candidates, filter, rank, batchTotal *obs.Histogram
}

func newQueryMetrics(o *obs.Observer) queryMetrics {
	return queryMetrics{
		queries:    o.Counter("queries_total"),
		errors:     o.Counter("query_errors_total"),
		total:      o.Histogram("query_total_ms"),
		parse:      o.Histogram("query_parse_ms"),
		candidates: o.Histogram("query_candidates_ms"),
		filter:     o.Histogram("query_filter_ms"),
		rank:       o.Histogram("query_rank_ms"),
		batchTotal: o.Histogram("query_batch_total_ms"),
	}
}

// NewEngine creates an engine over an existing repository, configured
// by functional options (WithSeed, WithIndexWorkers, WithObserver, …).
// Models already in the repository are NOT indexed automatically; call
// IndexAllContext or RegisterContext.
func NewEngine(store Store, opts ...Option) (*Engine, error) {
	if store == nil {
		return nil, fmt.Errorf("sommelier: nil repository")
	}
	var cfg engineConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.obs == nil {
		// Metrics are always on: the observer is the API every perf
		// claim in this repo reports through.
		cfg.obs = obs.New()
	}
	cfg.cat.Observer = cfg.obs
	return &Engine{
		cfg:   cfg,
		store: store,
		obs:   cfg.obs,
		qm:    newQueryMetrics(cfg.obs),
		cat:   catalog.New(cfg.cat),
	}, nil
}

// Store returns the underlying repository.
func (e *Engine) Store() Store { return e.store }

// Observer returns the engine's observability handle — never nil. Its
// Snapshot carries the catalog and query metrics; its Tracer holds
// recent index/query spans.
func (e *Engine) Observer() *obs.Observer { return e.obs }

// IndexedLen returns the number of indexed models.
func (e *Engine) IndexedLen() int { return e.cat.Snapshot().Len() }

// Profile returns the indexed resource profile for id.
func (e *Engine) Profile(id string) (resource.Profile, bool) {
	return e.cat.Snapshot().Profile(id)
}

// SetDefaultReference sets the reference model used when a query names a
// task category instead of a model (§5.1).
func (e *Engine) SetDefaultReference(task, id string) error {
	if err := e.cat.SetDefaultReference(task, id); err != nil {
		return fmt.Errorf("sommelier: %q is not indexed", id)
	}
	return nil
}

// IndexMemoryBytes reports the in-memory footprints of the catalog's
// semantic index and resource-profile table.
func (e *Engine) IndexMemoryBytes() (semantic, res int64) {
	return e.cat.MemoryBytes()
}
