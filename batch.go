package sommelier

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"sommelier/internal/catalog"
	"sommelier/internal/query"
)

// QueryBatchContext parses and executes a batch of query strings,
// returning per-query results and errors aligned by index. The batch
// amortizes the fixed per-query costs across its members:
//
//   - one catalog snapshot acquisition — every query answers against
//     the same consistent view, exactly as one serial loop over a
//     quiescent catalog would;
//   - one parse pass over all strings before any execution starts;
//   - one shared reprofile memo, so an EXEC-spec model that is a
//     candidate of many queries is loaded and measured once.
//
// Queries execute on a bounded worker pool (WithQueryWorkers, default
// GOMAXPROCS) with a per-query span under one query_batch root span.
// Execution order never changes answers: results are byte-identical to
// running the same queries serially through QueryContext against an
// unchanging catalog, at any worker count. Cancelling ctx aborts the
// in-flight queries mid-candidate-loop; queries that were cancelled
// report the context error in their slot.
func (e *Engine) QueryBatchContext(ctx context.Context, qs []string) ([][]Result, []error) {
	ctx, root := e.obs.StartSpan(ctx, "query_batch", fmt.Sprintf("%d queries", len(qs)))
	defer func() { e.obs.Histogram("query_batch_total_ms").Observe(root.End()) }()
	asts := make([]*query.Query, len(qs))
	errs := make([]error, len(qs))
	_, span := e.obs.StartSpan(ctx, "parse", "")
	for i, s := range qs {
		asts[i], errs[i] = query.Parse(s)
	}
	e.obs.Histogram("query_parse_ms").Observe(span.End())
	results := e.runBatch(ctx, asts, errs)
	return results, errs
}

// QueryBatchASTContext executes a batch of already-parsed queries with
// the same shared-snapshot, shared-memo, bounded-pool semantics as
// QueryBatchContext. A nil query yields a per-slot error; it does not
// abort the rest of the batch.
func (e *Engine) QueryBatchASTContext(ctx context.Context, qs []*query.Query) ([][]Result, []error) {
	ctx, root := e.obs.StartSpan(ctx, "query_batch", fmt.Sprintf("%d queries", len(qs)))
	defer func() { e.obs.Histogram("query_batch_total_ms").Observe(root.End()) }()
	errs := make([]error, len(qs))
	results := e.runBatch(ctx, qs, errs)
	return results, errs
}

// runBatch executes the parsed queries of one batch. errs arrives with
// parse failures already recorded; those slots are skipped. Each
// worker writes only its own slot, so no result-side synchronization
// is needed beyond the WaitGroup join.
func (e *Engine) runBatch(ctx context.Context, qs []*query.Query, errs []error) [][]Result {
	results := make([][]Result, len(qs))
	snap := e.cat.Snapshot()
	memo := catalog.NewReprofileMemo()
	sem := make(chan struct{}, e.queryWorkers(len(qs)))
	var wg sync.WaitGroup
	for i := range qs {
		if errs[i] != nil {
			e.obs.Counter("query_errors_total").Inc()
			continue
		}
		if qs[i] == nil {
			errs[i] = fmt.Errorf("sommelier: nil query at batch index %d", i)
			e.obs.Counter("query_errors_total").Inc()
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			qctx, span := e.obs.StartSpan(ctx, "query", fmt.Sprintf("batch[%d]", i))
			results[i], errs[i] = e.queryOne(qctx, snap, qs[i], memo, nil)
			e.obs.Histogram("query_total_ms").Observe(span.End())
			if errs[i] != nil {
				e.obs.Counter("query_errors_total").Inc()
			}
		}(i)
	}
	wg.Wait()
	return results
}

// queryWorkers resolves the batch pool size: the configured
// WithQueryWorkers value (default GOMAXPROCS), never more than the
// batch has queries, never less than one.
func (e *Engine) queryWorkers(batch int) int {
	n := e.cfg.queryWorkers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > batch {
		n = batch
	}
	if n < 1 {
		n = 1
	}
	return n
}
