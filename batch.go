package sommelier

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"sommelier/internal/query"
)

// QueryBatchContext parses and executes a batch of query strings,
// returning per-query results and errors aligned by index. The batch
// amortizes the fixed per-query costs across its members:
//
//   - one catalog snapshot acquisition — every query answers against
//     the same consistent view, exactly as one serial loop over a
//     quiescent catalog would;
//   - one parse pass over all strings before any execution starts.
//
// Queries execute on a pool of GOMAXPROCS workers with a per-query span
// under one query_batch root span.
// Execution order never changes answers: results are byte-identical to
// running the same queries serially through QueryContext against an
// unchanging catalog, at any worker count. Cancelling ctx aborts the
// in-flight queries mid-candidate-loop; queries that were cancelled
// report the context error in their slot.
func (e *Engine) QueryBatchContext(ctx context.Context, qs []string) ([][]Result, []error) {
	ctx, root := e.obs.StartSpan(ctx, "query_batch", fmt.Sprintf("%d queries", len(qs)))
	defer func() { e.qm.batchTotal.Observe(root.End()) }()
	asts := make([]*query.Query, len(qs))
	errs := make([]error, len(qs))
	span := e.obs.StartLeaf(ctx, "parse")
	for i, s := range qs {
		asts[i], errs[i] = query.Parse(s)
	}
	e.qm.parse.Observe(span.End())
	results := e.runBatch(ctx, asts, errs, false)
	return results, errs
}

// QueryBatchASTContext executes a batch of already-parsed queries with
// the same shared-snapshot, bounded-pool semantics as
// QueryBatchContext. A nil or invalid query yields a per-slot error; it
// does not abort the rest of the batch.
func (e *Engine) QueryBatchASTContext(ctx context.Context, qs []*query.Query) ([][]Result, []error) {
	ctx, root := e.obs.StartSpan(ctx, "query_batch", fmt.Sprintf("%d queries", len(qs)))
	defer func() { e.qm.batchTotal.Observe(root.End()) }()
	errs := make([]error, len(qs))
	results := e.runBatch(ctx, qs, errs, true)
	return results, errs
}

// runBatch executes the parsed queries of one batch. errs arrives with
// parse failures already recorded; those slots are skipped. validate is
// set for queries that did not come through query.Parse. The pool's
// workers pull query indices from one counter and each writes only its
// own slots, so no result-side synchronization is needed beyond the
// WaitGroup join.
func (e *Engine) runBatch(ctx context.Context, qs []*query.Query, errs []error, validate bool) [][]Result {
	results := make([][]Result, len(qs))
	todo := make([]int, 0, len(qs))
	for i := range qs {
		if errs[i] != nil {
			e.qm.errors.Inc()
			continue
		}
		if qs[i] == nil {
			errs[i] = fmt.Errorf("sommelier: nil query at batch index %d", i)
			e.qm.errors.Inc()
			continue
		}
		todo = append(todo, i)
	}
	snap := e.cat.Snapshot()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := e.queryWorkers(len(todo)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1)) - 1; k < len(todo); k = int(next.Add(1)) - 1 {
				i := todo[k]
				qctx, span := e.obs.StartSpan(ctx, "query", "batch["+strconv.Itoa(i)+"]")
				if validate {
					errs[i] = e.validateAST(qs[i])
				}
				if errs[i] == nil {
					results[i], errs[i] = e.queryOne(qctx, snap, qs[i], nil)
				}
				e.qm.total.Observe(span.End())
				if errs[i] != nil {
					e.qm.errors.Inc()
				}
			}
		}()
	}
	wg.Wait()
	return results
}

// queryWorkers resolves the batch pool size: GOMAXPROCS (or the
// cfg.queryWorkers a test sets), never more than the batch has queries
// to run.
func (e *Engine) queryWorkers(batch int) int {
	n := e.cfg.queryWorkers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return min(n, batch)
}
