package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
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
	// holderCacheCap bounds the holder directory (per-reference
	// entries, LRU eviction).
	holderCacheCap = 1024
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
// cluster_stale_shards_total and cluster_missing_shards_total. The
// holder directory counts cluster_directed_queries_total (queries that
// skipped a shard not holding their reference) and
// cluster_directory_relearns_total (queries asked of every shard again
// because a generation moved or a holder no longer held the reference).
func WithCoordinatorObserver(o *obs.Observer) CoordinatorOption {
	return func(c *Coordinator) { c.obs = o }
}

// Coordinator owns the read path of a shard cluster: it sends each
// query to the shards that may hold its reference model, in parallel,
// walks each shard's replicas in health-preference order, and merges
// the per-shard answers into one globally ranked top-K. Failure
// degrades one rung at a time, per shard and per query:
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
//
// Which shards hold a reference is learned: a query that every shard
// answered fresh records the shards that said they do not hold its
// reference, with the replica that said so and the generations of the
// shard's replicas read before the query was sent. Later queries on
// that reference skip those shards while the replica is still the
// shard's first choice and no generation has moved. Everything else —
// a query without a reference, a reference not learned yet, a moved
// generation — is asked of every shard.
type Coordinator struct {
	shards         [][]QueryBackend
	health         *healthTracker
	replicaTimeout time.Duration
	obs            *obs.Observer
	// Per-shard metric names, built once: cluster_shard<i>_query_ms and
	// cluster_shard<i>_errors_total.
	shardQueryMs, shardErrors []string

	mu      sync.Mutex
	lkg     *lru.Cache[shardQuery, []Result] // guarded by mu
	holders *lru.Cache[string, *holderEntry] // guarded by mu
}

// shardQuery keys one cached per-shard answer.
type shardQuery struct {
	shard int
	q     string
}

// holderEntry is what one query that every shard answered fresh taught
// the directory about its reference. held[s] marks a shard that holds
// it; ask[s] a shard its queries go to: a holder, or a shard with a
// replica that cannot report a generation. Every other shard answered,
// through replica[s], that it does not hold the reference, and gens[s]
// are its replicas' generations read before that query was sent. An
// entry is never changed after it is stored.
type holderEntry struct {
	held, ask []bool
	replica   []int
	gens      [][]uint64
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
		holders:        lru.New[string, *holderEntry](holderCacheCap),
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
	results []Result
	stale   bool
	missing bool
	// unknown: replica answered fresh that it does not hold the
	// query's reference.
	unknown   bool
	replica   int
	failovers int
}

// parse counts and parses one incoming query; query.Parse validates.
func (c *Coordinator) parse(q string) (*query.Query, error) {
	c.obs.Counter("cluster_queries_total").Inc()
	parsed, err := query.Parse(q)
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

// route is how one query of a scatter is sent.
type route struct {
	// by is the valid directory entry the query goes by; nil sends it
	// to every shard.
	by *holderEntry
	// gens are the generations read before sending a query whose
	// answer will teach the directory; nil for any other query.
	gens [][]uint64
}

// scatter answers the validated queries (parsed is index-aligned with
// qs) and merges each query's per-shard contributions into its
// Response. A query goes to the shards its valid directory entry asks
// and otherwise to every shard; a query one of whose holders no longer
// holds its reference is asked of every shard again in the same call.
// A shard a query skipped contributes nothing and is neither stale nor
// missing.
func (c *Coordinator) scatter(ctx context.Context, qs []string, parsed []*query.Query) []*Response {
	n := len(c.shards)
	routes := make([]route, len(qs))
	var round [][]uint64
	for j, p := range parsed {
		if p.Ref == "" {
			continue // the default reference is resolved by each shard
		}
		c.mu.Lock()
		e, ok := c.holders.Get(p.Ref)
		c.mu.Unlock()
		if ok && c.valid(e) {
			routes[j].by = e
			if slices.Contains(e.ask, false) {
				c.obs.Counter("cluster_directed_queries_total").Inc()
			}
			continue
		}
		if ok {
			c.obs.Counter("cluster_directory_relearns_total").Inc()
		}
		if round == nil {
			round = c.generations() // before anything is sent
		}
		routes[j].gens = round
	}
	flat := make([]shardOut, len(qs)*n)
	outs := make([][]shardOut, len(qs))
	all := make([]int, len(qs))
	for j := range qs {
		outs[j] = flat[j*n : (j+1)*n : (j+1)*n]
		all[j] = j
	}
	c.fanOut(ctx, qs, all, routes, outs)

	var again []int
	for j, rt := range routes {
		if rt.by == nil {
			continue
		}
		for s, o := range outs[j] {
			if rt.by.held[s] && o.unknown {
				again = append(again, j)
				break
			}
		}
	}
	if len(again) > 0 {
		round = c.generations()
		for _, j := range again {
			c.obs.Counter("cluster_directory_relearns_total").Inc()
			routes[j] = route{gens: round}
			clear(outs[j])
		}
		c.fanOut(ctx, qs, again, routes, outs)
	}

	responses := make([]*Response, len(qs))
	perShard := make([][]Result, n) // mergeTopK copies out of it
	for j := range qs {
		resp := &Response{Shards: n}
		for s, out := range outs[j] {
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
		case OutcomeFull:
			if routes[j].gens != nil {
				c.learn(parsed[j].Ref, outs[j], routes[j].gens)
			}
		case OutcomeDegraded:
			c.obs.Counter("cluster_degraded_queries").Inc()
		case OutcomeFailed:
			c.obs.Counter("cluster_failed_queries_total").Inc()
		}
		responses[j] = resp
	}
	return responses
}

// fanOut sends the queries idx to the shards their routes ask, every
// shard's share in parallel — the last shard's on the caller's
// goroutine — and stores shard s's answer to query j in outs[j][s].
func (c *Coordinator) fanOut(ctx context.Context, qs []string, idx []int, routes []route, outs [][]shardOut) {
	type share struct {
		shard int
		idx   []int
	}
	shares := make([]share, 0, len(c.shards))
	for s := range c.shards {
		var mine []int
		for _, j := range idx {
			if by := routes[j].by; by == nil || by.ask[s] {
				mine = append(mine, j)
			}
		}
		if len(mine) > 0 {
			shares = append(shares, share{s, mine})
		}
	}
	if len(shares) == 0 {
		return
	}
	run := func(sh share) {
		sub := make([]string, len(sh.idx))
		for k, j := range sh.idx {
			sub[k] = qs[j]
		}
		for k, out := range c.queryShardBatch(ctx, sh.shard, sub) {
			outs[sh.idx[k]][sh.shard] = out
		}
	}
	var wg sync.WaitGroup
	for _, sh := range shares[:len(shares)-1] {
		wg.Add(1)
		go func(sh share) {
			defer wg.Done()
			run(sh)
		}(sh)
	}
	run(shares[len(shares)-1])
	wg.Wait()
}

// generations reads every replica's generation, shard by shard; a shard
// with a replica that cannot report one reads nil.
func (c *Coordinator) generations() [][]uint64 {
	out := make([][]uint64, len(c.shards))
	for s, reps := range c.shards {
		out[s] = make([]uint64, len(reps))
		for r, rep := range reps {
			g, ok := rep.Generation()
			if !ok {
				out[s] = nil
				break
			}
			out[s][r] = g
		}
	}
	return out
}

// valid reports whether e still describes the shards it skips: each is
// asked through the replica that answered for it, and none of its
// replicas' generations has moved.
func (c *Coordinator) valid(e *holderEntry) bool {
	for s, ask := range e.ask {
		if ask {
			continue
		}
		if c.health.order(s)[0] != e.replica[s] {
			return false
		}
		for r, rep := range c.shards[s] {
			if g, ok := rep.Generation(); !ok || g != e.gens[s][r] {
				return false
			}
		}
	}
	return true
}

// learn stores what a query that every shard answered fresh says about
// ref's holders; gens are the generations read before it was sent.
func (c *Coordinator) learn(ref string, outs []shardOut, gens [][]uint64) {
	n := len(outs)
	e := &holderEntry{held: make([]bool, n), ask: make([]bool, n), replica: make([]int, n), gens: gens}
	for s, out := range outs {
		e.held[s] = !out.unknown
		e.ask[s] = e.held[s] || gens[s] == nil
		e.replica[s] = out.replica
	}
	c.mu.Lock()
	c.holders.Add(ref, e)
	c.mu.Unlock()
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
			unknown := errors.Is(qerrs[k], query.ErrUnknownReference)
			if qerrs[k] != nil && !unknown {
				outs[p].failovers++
				c.obs.Counter(c.shardErrors[shard]).Inc()
				c.obs.Counter(failoverCounter(qerrs[k])).Inc()
				still = append(still, p)
				continue
			}
			if unknown {
				results[k] = nil
			}
			outs[p].results, outs[p].unknown, outs[p].replica = results[k], unknown, r
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

// replicaBatch runs the pending set against one replica. The returned
// slices are index-aligned with qs; the outer error means the whole
// attempt failed, which an answer of the wrong length also is.
func replicaBatch(ctx context.Context, b QueryBackend, qs []string) ([][]Result, []error, error) {
	results, qerrs, err := b.QueryBatch(ctx, qs)
	if err == nil && (len(results) != len(qs) || len(qerrs) != len(qs)) {
		err = fmt.Errorf("cluster: replica returned %d results / %d errors for %d queries",
			len(results), len(qerrs), len(qs))
	}
	if err != nil {
		return nil, nil, err
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
