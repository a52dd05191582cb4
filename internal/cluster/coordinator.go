package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"sommelier/internal/hub"
	"sommelier/internal/lru"
	"sommelier/internal/obs"
	"sommelier/internal/query"
)

// Coordinator defaults.
const (
	// DefaultReplicaTimeout bounds each per-replica query attempt.
	DefaultReplicaTimeout = 2 * time.Second
	// lkgCacheCap bounds the last-known-good cache (per-shard, per-query
	// entries, LRU eviction).
	lkgCacheCap = 256
)

// CoordinatorOption configures a Coordinator.
type CoordinatorOption func(*Coordinator)

// WithReplicaTimeout bounds each per-replica attempt; the scatter
// deadline a caller sets on ctx still applies on top.
func WithReplicaTimeout(d time.Duration) CoordinatorOption {
	return func(c *Coordinator) { c.replicaTimeout = d }
}

// WithCoordinatorObserver attaches an observability handle. The
// coordinator records cluster_query_ms and per-shard
// cluster_shard<i>_query_ms histograms, counts queries by outcome
// (cluster_queries_total, cluster_degraded_queries,
// cluster_failed_queries_total), and tallies the degradation machinery:
// cluster_failovers_total split by cause (breaker/timeout/error),
// cluster_stale_shards_total and cluster_missing_shards_total.
func WithCoordinatorObserver(o *obs.Observer) CoordinatorOption {
	return func(c *Coordinator) { c.obs = o }
}

// Coordinator owns the read path of a shard cluster: it fans every
// query out to all shards in parallel, walks each shard's replicas in
// health-preference order, and merges the per-shard answers into one
// globally ranked top-K. Failure degrades one rung at a time, per
// shard and per query:
//
//	replica answer → failover to next replica → last-known-good (stale)
//	→ partial result naming the missing shard
//
// A query therefore never fails because a shard died; it fails only if
// the query itself is invalid. Everything below an invalid query is a
// Response whose Missing/Stale fields say exactly how much of the
// catalog answered. Query and QueryBatch share one implementation of
// the ladder (queryShardBatch) and of the merge (scatter); a single
// query is a batch of one.
type Coordinator struct {
	shards         [][]QueryBackend
	health         *healthTracker
	replicaTimeout time.Duration
	obs            *obs.Observer
	// Per-shard metric names, built once: cluster_shard<i>_query_ms and
	// cluster_shard<i>_errors_total.
	shardQueryMs, shardErrors []string

	mu  sync.Mutex
	lkg *lru.Cache[shardQuery, []Result] // guarded by mu
}

// shardQuery keys one cached per-shard answer.
type shardQuery struct {
	shard int
	q     string
}

// NewCoordinator builds a coordinator over the shard topology; every
// shard needs at least one replica.
func NewCoordinator(shards [][]QueryBackend, opts ...CoordinatorOption) (*Coordinator, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: coordinator needs at least one shard")
	}
	c := &Coordinator{
		shards:         shards,
		health:         newHealthTracker(shards),
		replicaTimeout: DefaultReplicaTimeout,
		shardQueryMs:   make([]string, len(shards)),
		shardErrors:    make([]string, len(shards)),
		lkg:            lru.New[shardQuery, []Result](lkgCacheCap),
	}
	for i, reps := range shards {
		if len(reps) == 0 {
			return nil, fmt.Errorf("cluster: shard %d has no replicas", i)
		}
		c.shardQueryMs[i] = fmt.Sprintf("cluster_shard%d_query_ms", i)
		c.shardErrors[i] = fmt.Sprintf("cluster_shard%d_errors_total", i)
	}
	for _, opt := range opts {
		opt(c)
	}
	if c.replicaTimeout <= 0 {
		return nil, fmt.Errorf("cluster: non-positive replica timeout")
	}
	return c, nil
}

// Shards returns the shard count.
func (c *Coordinator) Shards() int { return len(c.shards) }

// shardOut is one shard's contribution to one query of a scatter.
type shardOut struct {
	results   []Result
	stale     bool
	missing   bool
	failovers int
}

// parse counts and validates one incoming query.
func (c *Coordinator) parse(q string) (*query.Query, error) {
	c.obs.Counter("cluster_queries_total").Inc()
	parsed, err := query.Parse(q)
	if err == nil {
		err = parsed.Validate()
	}
	if err != nil {
		c.obs.Counter("cluster_query_errors_total").Inc()
		return nil, err
	}
	return parsed, nil
}

// Query runs one scatter-gather query. The error is non-nil only for
// an invalid query; shard failures surface through the Response's
// Missing and Stale fields instead.
func (c *Coordinator) Query(ctx context.Context, q string) (*Response, error) {
	stop := c.obs.Time("cluster_query_ms")
	defer stop()
	parsed, err := c.parse(q)
	if err != nil {
		return nil, err
	}
	return c.scatter(ctx, []string{q}, []*query.Query{parsed})[0], nil
}

// QueryBatch runs a batch of queries through one scatter: each shard is
// visited once per replica attempt with every still-pending query, so a
// 64-query batch against a healthy cluster costs one round trip per
// shard instead of 64. The returned slices are index-aligned with qs;
// errors[i] is non-nil only when query i itself is invalid — shard
// failures degrade per query through the ladder and surface in that
// query's Response.
func (c *Coordinator) QueryBatch(ctx context.Context, qs []string) ([]*Response, []error) {
	c.obs.Counter("cluster_batches_total").Inc()
	stop := c.obs.Time("cluster_batch_ms")
	defer stop()

	responses := make([]*Response, len(qs))
	errs := make([]error, len(qs))
	parsed := make([]*query.Query, 0, len(qs))
	valid := make([]int, 0, len(qs))
	for i, q := range qs {
		p, err := c.parse(q)
		if err != nil {
			errs[i] = err
			continue
		}
		parsed = append(parsed, p)
		valid = append(valid, i)
	}
	if len(valid) == 0 {
		return responses, errs
	}
	sub := qs
	if len(valid) < len(qs) {
		sub = make([]string, len(valid))
		for j, i := range valid {
			sub[j] = qs[i]
		}
	}
	for j, resp := range c.scatter(ctx, sub, parsed) {
		responses[valid[j]] = resp
	}
	return responses, errs
}

// scatter sends the validated queries to every shard in parallel and
// merges each query's per-shard contributions into its Response.
// parsed is index-aligned with qs.
func (c *Coordinator) scatter(ctx context.Context, qs []string, parsed []*query.Query) []*Response {
	shardOuts := make([][]shardOut, len(c.shards))
	var wg sync.WaitGroup
	for i := range c.shards {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			shardOuts[shard] = c.queryShardBatch(ctx, shard, qs)
		}(i)
	}
	wg.Wait()

	responses := make([]*Response, len(qs))
	perShard := make([][]Result, len(c.shards)) // mergeTopK copies out of it
	for j := range qs {
		resp := &Response{Shards: len(c.shards)}
		for s := range c.shards {
			out := shardOuts[s][j]
			perShard[s] = out.results
			resp.Failovers += out.failovers
			if out.stale {
				resp.Stale = append(resp.Stale, s)
			}
			if out.missing {
				resp.Missing = append(resp.Missing, s)
			}
		}
		resp.Results = mergeTopK(parsed[j], perShard)
		switch resp.Class() {
		case OutcomeDegraded:
			c.obs.Counter("cluster_degraded_queries").Inc()
		case OutcomeFailed:
			c.obs.Counter("cluster_failed_queries_total").Inc()
		}
		responses[j] = resp
	}
	return responses
}

// queryShardBatch is the ladder. It walks one shard's replicas in preference
// order with the whole pending set, retrying only the queries a replica
// failed: a transport-level failure fails the entire pending set over,
// a per-query error retries just that query on the next replica.
// Queries still unanswered after the walk fall through to the
// last-known-good cache, then to missing.
func (c *Coordinator) queryShardBatch(ctx context.Context, shard int, qs []string) []shardOut {
	stop := c.obs.Time(c.shardQueryMs[shard])
	defer stop()
	outs := make([]shardOut, len(qs))
	pending := make([]int, len(qs))
	for i := range pending {
		pending[i] = i
	}
	for _, r := range c.health.order(shard) {
		if len(pending) == 0 {
			break
		}
		sub := qs
		if len(pending) < len(qs) {
			sub = make([]string, len(pending))
			for k, p := range pending {
				sub[k] = qs[p]
			}
		}
		attemptCtx, cancel := context.WithTimeout(ctx, c.replicaTimeout)
		results, qerrs, err := replicaBatch(attemptCtx, c.shards[shard][r], sub)
		cancel()
		if err != nil {
			c.health.fail(shard, r)
			c.obs.Counter(c.shardErrors[shard]).Inc()
			c.obs.Counter(failoverCounter(err)).Inc()
			for _, p := range pending {
				outs[p].failovers++
			}
			if ctx.Err() != nil {
				// The scatter deadline itself expired; further replicas
				// would only see dead contexts.
				break
			}
			continue
		}
		still := pending[:0]
		for k, p := range pending {
			if qerrs[k] != nil {
				outs[p].failovers++
				c.obs.Counter(c.shardErrors[shard]).Inc()
				c.obs.Counter(failoverCounter(qerrs[k])).Inc()
				still = append(still, p)
				continue
			}
			outs[p].results = results[k]
			if outs[p].failovers > 0 {
				c.obs.Counter("cluster_failovers_total").Add(int64(outs[p].failovers))
			}
			c.mu.Lock()
			c.lkg.Add(shardQuery{shard, qs[p]}, results[k])
			c.mu.Unlock()
		}
		// A replica that answered nothing is as bad as one that did not
		// answer; one that answered anything stays preferred.
		if len(still) == len(pending) {
			c.health.fail(shard, r)
		} else {
			c.health.ok(shard, r)
		}
		pending = still
		if ctx.Err() != nil {
			break
		}
	}
	for _, p := range pending {
		// A hit refreshes recency but the entry stays — an outage can
		// outlive many queries.
		c.mu.Lock()
		res, ok := c.lkg.Get(shardQuery{shard, qs[p]})
		c.mu.Unlock()
		if ok {
			c.obs.Counter("cluster_stale_shards_total").Inc()
			outs[p].results = res
			outs[p].stale = true
		} else {
			c.obs.Counter("cluster_missing_shards_total").Inc()
			outs[p].missing = true
		}
	}
	return outs
}

// replicaBatch runs the pending set against one replica: one query goes
// through Query (for a remote replica, the GET wire form), several
// through the replica's batch surface when it has one and a serial
// Query loop otherwise. The returned slices are index-aligned with qs;
// the outer error means the whole attempt failed.
func replicaBatch(ctx context.Context, b QueryBackend, qs []string) ([][]Result, []error, error) {
	if bb, ok := b.(BatchQueryBackend); ok && len(qs) > 1 {
		results, qerrs, err := bb.QueryBatch(ctx, qs)
		if err != nil {
			return nil, nil, err
		}
		if len(results) != len(qs) || len(qerrs) != len(qs) {
			return nil, nil, fmt.Errorf("cluster: batch backend returned %d results / %d errors for %d queries",
				len(results), len(qerrs), len(qs))
		}
		return results, qerrs, nil
	}
	results := make([][]Result, len(qs))
	qerrs := make([]error, len(qs))
	for i, q := range qs {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		res, err := b.Query(ctx, q)
		if err != nil {
			qerrs[i] = err
			continue
		}
		results[i] = res
	}
	return results, qerrs, nil
}

// failoverCounter names the failover counter for why a replica attempt
// failed: an open client-side breaker, a timeout (the per-attempt
// deadline or the hub client's own per-attempt timeout), or any other
// error.
func failoverCounter(err error) string {
	switch {
	case errors.Is(err, hub.ErrCircuitOpen):
		return "cluster_failover_breaker_total"
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, hub.ErrAttemptTimeout):
		return "cluster_failover_timeout_total"
	default:
		return "cluster_failover_error_total"
	}
}
