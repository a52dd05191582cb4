package catalog

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"sommelier/internal/graph"
	"sommelier/internal/index"
	"sommelier/internal/resource"
)

// The indexing pipeline has three stages:
//
//	profile/plan → pairwise-analyze → commit
//
// Only planning and commit take the writer lock, and both are cheap:
// planning draws the pairwise sample (consuming the index RNG in
// canonical order), commit applies precomputed measurements. The
// expensive middle stage — equivalence analysis and resource profiling
// — runs outside any lock, fanned out across the worker pool. For a
// fixed seed the committed index is byte-identical to serial insertion
// regardless of worker count: the RNG sequence is fixed at plan time
// and commits land in plan order.
//
// Both entry points are context-aware: cancellation drains the worker
// pool (queued tasks exit without running) and returns before commit,
// so a canceled batch commits nothing. Every stage reports its timing
// through the catalog's observer — plan/analyze/commit histograms, a
// busy-worker gauge, and a span tree rooted at the indexing call.

// Index profiles, analyzes, and commits one model. Indexing an
// already indexed ID fails with an error wrapping
// index.ErrAlreadyIndexed. A canceled ctx aborts before commit.
func (c *Catalog) Index(ctx context.Context, id string, m *graph.Model) error {
	if id == "" || m == nil {
		return fmt.Errorf("catalog: index needs an ID and a model")
	}
	ctx, root := c.obs.StartSpan(ctx, "catalog.index", id)
	defer root.End()

	_, pspan := c.obs.StartSpan(ctx, "profile", "")
	prof, err := c.profiler.Measure(m)
	c.obs.Histogram("catalog_profile_ms").Observe(pspan.End())
	if err != nil {
		c.obs.Counter("catalog_index_errors_total").Inc()
		return fmt.Errorf("catalog: profiling %q: %w", id, err)
	}

	entry := index.Entry{ID: id, Model: m}
	_, span := c.obs.StartSpan(ctx, "plan", "")
	c.mu.Lock()
	if c.sem.Contains(id) {
		c.mu.Unlock()
		span.End()
		return fmt.Errorf("catalog: model %q %w", id, index.ErrAlreadyIndexed)
	}
	plan := c.sem.PlanInserts([]index.Entry{entry})[0]
	partners := make([]index.Entry, len(plan.Partners))
	for i, pid := range plan.Partners {
		pe, ok := c.sem.EntryOf(pid)
		if !ok {
			c.mu.Unlock()
			span.End()
			return fmt.Errorf("catalog: planned partner %q unknown", pid)
		}
		partners[i] = pe
	}
	c.mu.Unlock()
	c.obs.Histogram("catalog_plan_ms").Observe(span.End())

	meas, err := c.analyzePlanned(ctx, entry, partners)
	if err != nil {
		c.obs.Counter("catalog_index_errors_total").Inc()
		return err
	}

	_, span = c.obs.StartSpan(ctx, "commit", "")
	defer func() { c.obs.Histogram("catalog_commit_ms").Observe(span.End()) }()
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.sem.CommitPlanned(entry, meas); err != nil {
		if errors.Is(err, index.ErrAlreadyIndexed) {
			return fmt.Errorf("catalog: model %q %w", id, index.ErrAlreadyIndexed)
		}
		return err
	}
	c.profiles[id] = prof
	c.noteDefaultRefLocked(id, m)
	c.publishLocked()
	c.obs.Counter("catalog_models_indexed_total").Inc()
	return nil
}

// IndexBatch indexes a set of models through the staged pipeline,
// analyzing all planned pairs concurrently. Entries already indexed —
// whether before the call or by a concurrent writer between planning
// and commit — are skipped, not errors; in-batch duplicate IDs keep
// the first occurrence. It returns the number of models committed.
//
// Cancellation mid-analysis drains the worker pool and returns
// ctx.Err() with nothing committed: the commit stage only runs for a
// batch whose analysis completed.
//
// For a fixed catalog seed, IndexBatch over the same entry order
// produces an index byte-identical to serial Index calls, at any
// worker count.
func (c *Catalog) IndexBatch(ctx context.Context, entries []index.Entry) (int, error) {
	ctx, root := c.obs.StartSpan(ctx, "catalog.indexall", "")
	defer root.End()

	// Stage 1 (plan, short lock): filter out known and duplicate IDs,
	// then draw every pairwise sample up-front in canonical order.
	// Later batch entries may sample earlier ones, so partner graphs
	// resolve from either the committed index or the batch itself.
	_, span := c.obs.StartSpan(ctx, "plan", "")
	c.mu.Lock()
	var fresh []index.Entry
	inBatch := make(map[string]*graph.Model, len(entries))
	for _, e := range entries {
		if e.ID == "" || e.Model == nil {
			c.mu.Unlock()
			span.End()
			return 0, fmt.Errorf("catalog: batch entry must have an ID and a model")
		}
		if c.sem.Contains(e.ID) || inBatch[e.ID] != nil {
			continue
		}
		inBatch[e.ID] = e.Model
		fresh = append(fresh, e)
	}
	plans := c.sem.PlanInserts(fresh)
	partnerEntries := make([][]index.Entry, len(plans))
	for i, plan := range plans {
		ps := make([]index.Entry, len(plan.Partners))
		for j, pid := range plan.Partners {
			if pe, ok := c.sem.EntryOf(pid); ok {
				ps[j] = pe
			} else if m := inBatch[pid]; m != nil {
				ps[j] = index.Entry{ID: pid, Model: m}
			} else {
				c.mu.Unlock()
				span.End()
				return 0, fmt.Errorf("catalog: planned partner %q unknown", pid)
			}
		}
		partnerEntries[i] = ps
	}
	c.mu.Unlock()
	c.obs.Histogram("catalog_plan_ms").Observe(span.End())

	// Stage 2 (analyze, no lock): profile every model and measure
	// every planned pair, bounded by the worker pool. Each task writes
	// its own slot, so no synchronization beyond the WaitGroup. A
	// canceled ctx makes queued tasks exit without running.
	ctx, stage := c.obs.StartSpan(ctx, "analyze", "")
	profs := make([]resource.Profile, len(plans))
	profErrs := make([]error, len(plans))
	measured := make([][]index.PairMeasurement, len(plans))
	pairErrs := make([][]error, len(plans))
	var wg sync.WaitGroup
	for i := range plans {
		i := i
		measured[i] = make([]index.PairMeasurement, len(partnerEntries[i]))
		pairErrs[i] = make([]error, len(partnerEntries[i]))
		c.runTask(ctx, &wg, "profile", plans[i].Entry.ID, func() {
			p, err := c.profiler.Measure(plans[i].Entry.Model)
			if err != nil {
				profErrs[i] = fmt.Errorf("catalog: profiling %q: %w", plans[i].Entry.ID, err)
				return
			}
			profs[i] = p
		})
		for j := range partnerEntries[i] {
			j := j
			c.runTask(ctx, &wg, "pair", plans[i].Entry.ID+"~"+partnerEntries[i][j].ID, func() {
				res, err := c.analyzer.Analyze(plans[i].Entry, partnerEntries[i][j])
				if err != nil {
					pairErrs[i][j] = fmt.Errorf("catalog: analyzing %q vs %q: %w",
						plans[i].Entry.ID, partnerEntries[i][j].ID, err)
					return
				}
				measured[i][j] = index.PairMeasurement{Partner: partnerEntries[i][j].ID, Result: res}
			})
		}
	}
	wg.Wait()
	c.obs.Histogram("catalog_analyze_ms").Observe(stage.End())
	if err := ctx.Err(); err != nil {
		c.obs.Counter("catalog_index_canceled_total").Inc()
		return 0, err
	}

	// Stage 3 (commit, short lock): apply measurements in plan order.
	// A commit that finds its ID already indexed lost a race with a
	// concurrent writer and is skipped — the check-then-insert pair
	// lives inside one critical section, so there is no window for
	// double insertion. The snapshot publishes once, on the way out,
	// covering both full and partial (error) commits.
	_, span = c.obs.StartSpan(ctx, "commit", "")
	defer func() { c.obs.Histogram("catalog_commit_ms").Observe(span.End()) }()
	c.mu.Lock()
	defer c.mu.Unlock()
	defer c.publishLocked()
	committed := 0
	for i, plan := range plans {
		if profErrs[i] != nil {
			c.obs.Counter("catalog_index_errors_total").Inc()
			return committed, profErrs[i]
		}
		for _, err := range pairErrs[i] {
			if err != nil {
				c.obs.Counter("catalog_index_errors_total").Inc()
				return committed, err
			}
		}
		if err := c.sem.CommitPlanned(plan.Entry, measured[i]); err != nil {
			if errors.Is(err, index.ErrAlreadyIndexed) {
				continue
			}
			return committed, err
		}
		c.profiles[plan.Entry.ID] = profs[i]
		c.noteDefaultRefLocked(plan.Entry.ID, plan.Entry.Model)
		committed++
	}
	c.obs.Counter("catalog_models_indexed_total").Add(int64(committed))
	return committed, nil
}

// runTask schedules fn on the bounded worker pool, tracking occupancy
// and wrapping the work in a span parented to ctx's current span. A ctx
// canceled before the task acquires a worker slot skips fn entirely;
// the batch's post-wait ctx.Err() check turns that into the caller's
// error.
func (c *Catalog) runTask(ctx context.Context, wg *sync.WaitGroup, name, detail string, fn func()) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		select {
		case c.sema <- struct{}{}:
		case <-ctx.Done():
			return
		}
		defer func() { <-c.sema }()
		if ctx.Err() != nil {
			return
		}
		c.obs.Gauge("catalog_workers_busy").Add(1)
		defer c.obs.Gauge("catalog_workers_busy").Add(-1)
		c.obs.Counter("catalog_tasks_total").Inc()
		_, span := c.obs.StartSpan(ctx, name, detail)
		defer span.End()
		fn()
	}()
}

// analyzePlanned measures one entry against its planned partners,
// fanning the pairs out across the worker pool. Measurements return in
// partner (plan) order. Cancellation drains the pool and reports
// ctx.Err().
func (c *Catalog) analyzePlanned(ctx context.Context, e index.Entry, partners []index.Entry) ([]index.PairMeasurement, error) {
	ctx, stage := c.obs.StartSpan(ctx, "analyze", "")
	meas := make([]index.PairMeasurement, len(partners))
	errs := make([]error, len(partners))
	var wg sync.WaitGroup
	for i, p := range partners {
		i, p := i, p
		c.runTask(ctx, &wg, "pair", e.ID+"~"+p.ID, func() {
			res, err := c.analyzer.Analyze(e, p)
			if err != nil {
				errs[i] = fmt.Errorf("catalog: analyzing %q vs %q: %w", e.ID, p.ID, err)
				return
			}
			meas[i] = index.PairMeasurement{Partner: p.ID, Result: res}
		})
	}
	wg.Wait()
	c.obs.Histogram("catalog_analyze_ms").Observe(stage.End())
	if err := ctx.Err(); err != nil {
		c.obs.Counter("catalog_index_canceled_total").Inc()
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return meas, nil
}
