package hub

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sommelier/internal/cas"
	"sommelier/internal/graph"
	"sommelier/internal/lru"
	"sommelier/internal/obs"
	"sommelier/internal/query"
	"sommelier/internal/repo"
)

// Resilience defaults. The paper's serving case study (§7.1) assumes
// the hub is always up; these knobs make the client survive the hubs
// one actually meets over a network.
const (
	// DefaultTimeout bounds each HTTP attempt.
	DefaultTimeout = 10 * time.Second
	// DefaultRetries is the number of re-attempts after a failed
	// idempotent GET (so up to DefaultRetries+1 attempts total).
	DefaultRetries = 4
	// DefaultBaseBackoff and DefaultMaxBackoff bound the exponential
	// backoff between retries; the actual sleep is drawn uniformly from
	// [0, min(max, base<<attempt)] (full jitter).
	DefaultBaseBackoff = 25 * time.Millisecond
	DefaultMaxBackoff  = 2 * time.Second
	// DefaultBreakerThreshold consecutive failed operations trip the
	// circuit breaker; DefaultBreakerCooldown later it half-opens.
	DefaultBreakerThreshold = 5
	DefaultBreakerCooldown  = 30 * time.Second
	// DefaultCacheCap bounds the client's model cache (LRU eviction).
	DefaultCacheCap = 1024
)

// Option configures a Client.
type Option func(*Client)

// WithTimeout sets the per-attempt request timeout.
func WithTimeout(d time.Duration) Option { return func(c *Client) { c.timeout = d } }

// WithRetries sets how many times idempotent GETs are re-attempted
// after a transient failure.
func WithRetries(n int) Option { return func(c *Client) { c.retries = n } }

// WithBackoff sets the exponential-backoff base and cap for retries.
func WithBackoff(base, max time.Duration) Option {
	return func(c *Client) { c.backoffBase, c.backoffMax = base, max }
}

// WithBreaker sets the circuit breaker's consecutive-failure threshold
// and open-state cooldown. A threshold <= 0 disables the breaker.
func WithBreaker(threshold int, cooldown time.Duration) Option {
	return func(c *Client) { c.breakerThreshold, c.breakerCooldown = threshold, cooldown }
}

// WithCacheCap bounds the model cache to n entries (LRU eviction);
// n <= 0 means unbounded.
func WithCacheCap(n int) Option { return func(c *Client) { c.cacheCap = n } }

// WithObserver attaches an observability handle. The client times each
// operation into hub_client_<op>_ms histograms (op in publish, load,
// list, delete), counts failures in hub_client_<op>_errors_total, and
// publishes its resilience state — retries, stale reads, breaker
// state/opens, cache population — as gauges evaluated at snapshot time,
// so Client.Stats and the observer's Snapshot always agree. Sharing one
// observer between the client, the engine, and a hub server yields a
// single unified snapshot.
func WithObserver(o *obs.Observer) Option { return func(c *Client) { c.obs = o } }

// Stats reports the client's resilience counters.
type Stats struct {
	// Retries is the total number of re-attempts performed.
	Retries int64
	// StaleLoads counts Loads served from cache while the breaker was
	// not closed — i.e. knowingly stale reads during an outage.
	StaleLoads int64
	// StaleLists counts Lists served from the last-known-good snapshot
	// because the hub was unreachable.
	StaleLists int64
	// BreakerState is "closed", "open" or "half-open".
	BreakerState string
	// BreakerOpens is how many times the breaker has tripped.
	BreakerOpens int64
	// CachedModels is the current model-cache population.
	CachedModels int
}

// Client accesses a remote hub with the same surface as a local
// repo.Repository (publish/load/list/delete), caching fetched models so
// repeated Loads — the indexing hot path — hit the network once.
//
// The client is resilient by default: every attempt carries a context
// timeout, idempotent GETs are retried with exponential backoff and
// full jitter on transport/5xx/corrupt-body failures, a circuit breaker
// sheds traffic after consecutive failures, and reads degrade gracefully
// — Load serves cached models and List serves its last-known-good
// snapshot (counted in Stats as stale) when the hub is unreachable.
type Client struct {
	base string
	http *http.Client

	timeout                 time.Duration
	retries                 int
	backoffBase, backoffMax time.Duration
	breakerThreshold        int
	breakerCooldown         time.Duration
	cacheCap                int
	breaker                 *breaker
	obs                     *obs.Observer
	retryCount              atomic.Int64
	staleLoads, staleLists  atomic.Int64
	// gen is the latest change HeaderGeneration values have shown; nil
	// until a response has carried one.
	gen atomic.Pointer[genSeen]
	// unsure, above 0, is one more than gen's seen at a PUT or DELETE
	// attempt whose answer never arrived, or was a 5xx without the
	// header: Generation reports none until a later change is seen.
	unsure atomic.Uint64
	// packOnly is set once the hub has refused a partial pack as
	// unsupported: later publishes skip negotiation and send one pack.
	packOnly atomic.Bool

	mu       sync.Mutex
	cache    *lru.Cache[string, *graph.Model] // guarded by mu
	lastList []repo.Metadata                  // guarded by mu

	jitterMu sync.Mutex
	jitter   *rand.Rand // guarded by jitterMu

	// packs recycles Load's pack bodies.
	packs bufPool
}

// clientSeq seeds each client's jitter stream: monotonic and
// process-local, so backoff never touches the wall clock or the
// global math/rand state the deterministic packages ban.
var clientSeq atomic.Int64

// NewClient returns a client for a hub at baseURL (e.g.
// "http://hub:8080"). httpClient may be nil for http.DefaultClient;
// options override the resilience defaults above.
func NewClient(baseURL string, httpClient *http.Client, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("hub: invalid base URL %q", baseURL)
	}
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	c := &Client{
		base:             strings.TrimRight(baseURL, "/"),
		http:             httpClient,
		timeout:          DefaultTimeout,
		retries:          DefaultRetries,
		backoffBase:      DefaultBaseBackoff,
		backoffMax:       DefaultMaxBackoff,
		breakerThreshold: DefaultBreakerThreshold,
		breakerCooldown:  DefaultBreakerCooldown,
		cacheCap:         DefaultCacheCap,
		jitter:           rand.New(rand.NewSource(clientSeq.Add(1))),
	}
	for _, opt := range opts {
		opt(c)
	}
	if c.timeout <= 0 {
		return nil, fmt.Errorf("hub: non-positive timeout")
	}
	if c.retries < 0 {
		c.retries = 0
	}
	c.breaker = newBreaker(c.breakerThreshold, c.breakerCooldown)
	c.cache = lru.New[string, *graph.Model](c.cacheCap)
	c.registerGauges()
	return c, nil
}

// registerGauges exports the resilience counters as snapshot-time
// gauges, so Stats and the unified obs.Snapshot report the same
// numbers without double bookkeeping. Breaker state is encoded as
// 0=closed, 1=open, 2=half-open (the breaker's own constants).
func (c *Client) registerGauges() {
	if c.obs == nil {
		return
	}
	reg := c.obs.Registry()
	reg.GaugeFunc("hub_client_retries", c.retryCount.Load)
	reg.GaugeFunc("hub_client_stale_loads", c.staleLoads.Load)
	reg.GaugeFunc("hub_client_stale_lists", c.staleLists.Load)
	reg.GaugeFunc("hub_client_cached_models", func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return int64(c.cache.Len())
	})
	reg.GaugeFunc("hub_client_breaker_state", func() int64 {
		state, _ := c.breaker.snapshot()
		return int64(state)
	})
	reg.GaugeFunc("hub_client_breaker_opens", func() int64 {
		_, opens := c.breaker.snapshot()
		return opens
	})
}

// Stats returns a snapshot of the resilience counters.
func (c *Client) Stats() Stats {
	state, opens := c.breaker.snapshot()
	c.mu.Lock()
	cached := c.cache.Len()
	c.mu.Unlock()
	return Stats{
		Retries:      c.retryCount.Load(),
		StaleLoads:   c.staleLoads.Load(),
		StaleLists:   c.staleLists.Load(),
		BreakerState: stateName(state),
		BreakerOpens: opens,
		CachedModels: cached,
	}
}

// genSeen is what HeaderGeneration values have told a client so far.
type genSeen struct {
	boot string // the hub process that sent the latest change
	gen  uint64 // the highest count that process has sent
	seen uint64 // changes seen, from 1
}

// Generation counts the changes to the hub's write generation
// (HeaderGeneration, on query answers and write acks) this client has
// seen: a higher count under the same boot, or a new boot — the hub
// restarted, or the URL now reaches another hub. Two equal readings
// mean no response between them showed a write. It is false until a
// response has carried one — a hub that predates the header, or a proxy
// that strips it, leaves it false — and after a PUT or DELETE attempt
// whose answer never arrived or was a 5xx without the header, until a
// later change has been seen: that write may still commit.
func (c *Client) Generation() (uint64, bool) {
	cur := c.gen.Load()
	if cur == nil || cur.seen < c.unsure.Load() {
		return 0, false
	}
	return cur.seen, true
}

// noteGeneration records a change a response's HeaderGeneration shows
// and reports whether it carried one; a missing or malformed header
// shows nothing.
func (c *Client) noteGeneration(h http.Header) bool {
	v := h[HeaderGeneration]
	if len(v) == 0 {
		return false
	}
	boot, n, ok := strings.Cut(v[0], ".")
	if !ok || boot == "" {
		return false
	}
	g, err := strconv.ParseUint(n, 10, 64)
	if err != nil {
		return false
	}
	for {
		cur := c.gen.Load()
		next := &genSeen{boot: boot, gen: g, seen: 1}
		if cur != nil {
			if cur.boot == boot && cur.gen >= g {
				return true
			}
			next.seen = cur.seen + 1
		}
		if c.gen.CompareAndSwap(cur, next) {
			return true
		}
	}
}

// doubtGeneration makes Generation report none until a change newer
// than the latest seen arrives.
func (c *Client) doubtGeneration() {
	next := uint64(1)
	if cur := c.gen.Load(); cur != nil {
		next = cur.seen + 1
	}
	for {
		u := c.unsure.Load()
		if u >= next || c.unsure.CompareAndSwap(u, next) {
			return
		}
	}
}

func (c *Client) modelURL(id string) string {
	return c.base + "/v1/models/" + url.PathEscape(id)
}

// StatusError is a non-2xx hub response, exposed as a typed error so
// callers — the cluster coordinator in particular — can branch on the
// status code with errors.As instead of string matching. Only 5xx
// codes are transient.
type StatusError struct {
	// Code is the HTTP status code the hub answered with.
	Code int
	msg  string
	// refusal is the *QueryError a refused query's results frame
	// carried, if any; Unwrap exposes it to errors.As.
	refusal error
}

func (e *StatusError) Error() string { return e.msg }

// Unwrap returns the refusal the hub sent with the status, if any.
func (e *StatusError) Unwrap() error { return e.refusal }

// ErrAttemptTimeout is wrapped by attempt failures caused by the
// client's own per-attempt timeout — as opposed to the caller's context
// expiring, which surfaces as the caller's context error. The
// distinction is what lets a scatter-gather coordinator treat a slow
// replica (fail over to the next one) differently from its own query
// deadline (stop asking anyone).
var ErrAttemptTimeout = errors.New("hub: attempt timed out")

// retryable reports whether an attempt failure is worth retrying: all
// transport and body-corruption errors are presumed transient, and so
// are 5xx responses; any other status means the hub answered
// deliberately.
func retryable(err error) bool {
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code >= 500
	}
	return true
}

// do runs one logical operation against the hub through the breaker and
// (for idempotent operations) the retry loop. build must return a fresh
// request per attempt; a request built with NewRequestWithContext
// threads the caller's context through every attempt — cancellation
// aborts the backoff sleep and stops further retries. handle consumes
// the response.
func (c *Client) do(idempotent bool, build func() (*http.Request, error), handle func(*http.Response) error) error {
	if err := c.breaker.allow(); err != nil {
		return err
	}
	attempts := 1
	if idempotent {
		attempts += c.retries
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		req, err := build()
		if err != nil {
			return err
		}
		parent := req.Context()
		if i > 0 {
			c.retryCount.Add(1)
			if err := sleepCtx(parent, c.backoff(i)); err != nil {
				// The caller gave up between attempts; that is their
				// deadline, not a hub failure.
				return fmt.Errorf("%w (retry aborted: %w)", lastErr, err)
			}
		}
		err = c.doOnce(req, handle)
		if err == nil {
			c.breaker.success()
			return nil
		}
		lastErr = err
		if !retryable(err) {
			// The hub answered; it is alive even though it refused us.
			c.breaker.success()
			return err
		}
		if parent.Err() != nil {
			// Caller cancellation mid-flight: stop retrying and leave
			// the breaker out of it.
			return lastErr
		}
	}
	c.breaker.failure()
	return lastErr
}

// doOnce runs one attempt under the per-attempt timeout. A failure
// caused by that timeout — rather than by the request's own context —
// is wrapped in ErrAttemptTimeout so callers can tell "this hub is
// slow" from "I am out of time".
func (c *Client) doOnce(req *http.Request, handle func(*http.Response) error) error {
	parent := req.Context()
	ctx, cancel := context.WithTimeout(parent, c.timeout)
	defer cancel()
	attemptTimedOut := func(err error) error {
		if ctx.Err() != nil && parent.Err() == nil {
			return fmt.Errorf("%w after %v: %w", ErrAttemptTimeout, c.timeout, err)
		}
		return err
	}
	resp, err := c.http.Do(req.WithContext(ctx))
	write := req.Method == http.MethodPut || req.Method == http.MethodDelete
	if err != nil {
		if write {
			c.doubtGeneration()
		}
		return attemptTimedOut(err)
	}
	defer resp.Body.Close()
	if !c.noteGeneration(resp.Header) && write && resp.StatusCode >= 500 {
		// Not the hub's answer to the write — a gateway's, say — so
		// the hub behind it may still commit it.
		c.doubtGeneration()
	}
	if err := handle(resp); err != nil {
		// Body reads run under the same attempt deadline.
		return attemptTimedOut(err)
	}
	return nil
}

// sleepCtx sleeps for d unless ctx ends first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// backoff returns the sleep before retry attempt k (1-based):
// exponential growth capped at max, with full jitter drawn from the
// client's own seeded stream.
func (c *Client) backoff(k int) time.Duration {
	base, max := c.backoffBase, c.backoffMax
	if base <= 0 {
		return 0
	}
	d := base << (k - 1)
	if d > max || d <= 0 { // d <= 0 guards shift overflow
		d = max
	}
	if d <= 0 {
		return 0
	}
	c.jitterMu.Lock()
	j := c.jitter.Int63n(int64(d) + 1)
	c.jitterMu.Unlock()
	return time.Duration(j)
}

func buildGet(urlStr string) func() (*http.Request, error) {
	return func() (*http.Request, error) { return http.NewRequest(http.MethodGet, urlStr, nil) }
}

func expectStatus(resp *http.Response, want int) error {
	if resp.StatusCode != want {
		return &StatusError{Code: resp.StatusCode, msg: readError(resp)}
	}
	return nil
}

// Query runs a Sommelier query on the hub's GET /v1/query and returns
// its results. It asks for the results frame and decodes it once; an
// answer in any other form is a decode error. Queries are idempotent
// GETs, so the full retry/breaker machinery applies; ctx bounds the
// whole operation (each attempt additionally carries the per-attempt
// timeout, and a per-attempt expiry is reported as ErrAttemptTimeout).
// A refused query is a *StatusError (400) which, when the hub said why
// in a frame, wraps that *QueryError, code included. This is the
// per-shard call a cluster coordinator fans out.
func (c *Client) Query(ctx context.Context, q string) (_ []query.Result, err error) {
	done := c.obs.TimeOp("hub_client_query")
	defer func() { done(err) }()
	queryURL := c.base + "/v1/query?q=" + url.QueryEscape(q)
	var out []query.Result
	err = c.do(true,
		func() (*http.Request, error) {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, queryURL, nil)
			if err != nil {
				return nil, err
			}
			req.Header.Set("Accept", ContentTypeResults)
			return req, nil
		},
		func(resp *http.Response) error {
			if resp.Header.Get("Content-Type") != ContentTypeResults {
				if err := expectStatus(resp, http.StatusOK); err != nil {
					return err
				}
			}
			rss, qerrs, err := readResultsBody(resp, 1)
			if err != nil {
				return err
			}
			if qe := qerrs[0]; qe != nil {
				return &StatusError{Code: resp.StatusCode, msg: resp.Status + ": " + qe.Message, refusal: qe}
			}
			out = rss[0]
			return expectStatus(resp, http.StatusOK)
		})
	if err != nil {
		return nil, fmt.Errorf("hub: query: %w", err)
	}
	return out, nil
}

// QueryBatch runs a batch of Sommelier queries in one POST /v1/query
// round trip — the queries sent as a queries frame, the answer asked
// for as a results frame and decoded once — and returns per-query
// results and per-query errors, both index-aligned with qs (exactly one
// of results[i]/qerrs[i] is meaningful). The overall error is
// transport-level: the whole batch failed, nothing per-query is known.
// The POST is read-only, so it goes through the same retry/breaker
// machinery as Query.
func (c *Client) QueryBatch(ctx context.Context, qs []string) (_ [][]query.Result, _ []*QueryError, err error) {
	done := c.obs.TimeOp("hub_client_query_batch")
	defer func() { done(err) }()
	if len(qs) == 0 {
		return nil, nil, fmt.Errorf("hub: empty query batch")
	}
	body := appendQueries(nil, qs)
	var (
		results [][]query.Result
		qerrs   []*QueryError
	)
	err = c.do(true,
		func() (*http.Request, error) {
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/query", bytes.NewReader(body))
			if err != nil {
				return nil, err
			}
			req.Header.Set("Content-Type", ContentTypeQueries)
			req.Header.Set("Accept", ContentTypeResults)
			return req, nil
		},
		func(resp *http.Response) (err error) {
			if err := expectStatus(resp, http.StatusOK); err != nil {
				return err
			}
			results, qerrs, err = readResultsBody(resp, len(qs))
			return err
		})
	if err != nil {
		return nil, nil, fmt.Errorf("hub: query batch: %w", err)
	}
	return results, qerrs, nil
}

// readResultsBody decodes a response body that is a results frame of
// want slots; a body of any other Content-Type is an error.
func readResultsBody(resp *http.Response, want int) ([][]query.Result, []*QueryError, error) {
	if ct := resp.Header.Get("Content-Type"); ct != ContentTypeResults {
		return nil, nil, fmt.Errorf("hub answered %q, not a results frame", ct)
	}
	data, err := readBody(nil, resp.Body, resp.ContentLength)
	if err != nil {
		return nil, nil, err
	}
	return readResults(data, want)
}

// Load fetches a model by ID, serving repeats from the local cache. A
// fetch is one GET whose answer is the model's pack (manifest + raw
// chunks, verified and hydrated by cas.ReadPack); an answer of any
// other Content-Type is an error.
// When the hub is down, previously fetched models keep loading from
// cache (counted as stale in Stats while the breaker is not closed);
// unseen models fail fast with ErrCircuitOpen once the breaker trips.
func (c *Client) Load(id string) (_ *graph.Model, err error) {
	done := c.obs.TimeOp("hub_client_load")
	defer func() { done(err) }()
	c.mu.Lock()
	m, ok := c.cache.Get(id)
	c.mu.Unlock()
	if ok {
		if state, _ := c.breaker.snapshot(); state != stateClosed {
			c.staleLoads.Add(1)
		}
		return m, nil
	}
	err = c.do(true, buildGet(c.modelURL(id)), func(resp *http.Response) error {
		if err := expectStatus(resp, http.StatusOK); err != nil {
			return err
		}
		if ct := resp.Header.Get("Content-Type"); ct != ContentTypePack {
			return fmt.Errorf("hub answered %q, not a pack", ct)
		}
		data, err := readBody(c.packs.get(), resp.Body, resp.ContentLength)
		if err != nil {
			return err
		}
		m, _, err = cas.ReadPack(data)
		c.packs.put(data) // the model copied what it keeps
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("hub: load %s: %w", id, err)
	}
	c.mu.Lock()
	c.cache.Add(id, m)
	c.mu.Unlock()
	return m, nil
}

// List returns metadata for every hub model. If the hub is unreachable
// (transport/5xx failure after retries, or open breaker) and a previous
// List succeeded, the last-known-good snapshot is returned instead and
// counted as stale in Stats.
func (c *Client) List() (_ []repo.Metadata, err error) {
	done := c.obs.TimeOp("hub_client_list")
	defer func() { done(err) }()
	var out []repo.Metadata
	err = c.do(true, buildGet(c.base+"/v1/models"), func(resp *http.Response) error {
		if err := expectStatus(resp, http.StatusOK); err != nil {
			return err
		}
		var wire []metaJSON
		if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
			return err
		}
		out = make([]repo.Metadata, len(wire))
		for i, w := range wire {
			out[i] = repo.Metadata{
				ID: w.ID, Name: w.Name, Version: w.Version,
				Task: graph.TaskKind(w.Task), Series: w.Series, Annotations: w.Notes,
			}
		}
		return nil
	})
	if err != nil {
		if retryable(err) || errors.Is(err, ErrCircuitOpen) {
			c.mu.Lock()
			last := c.lastList
			c.mu.Unlock()
			if last != nil {
				c.staleLists.Add(1)
				return append([]repo.Metadata(nil), last...), nil
			}
		}
		return nil, fmt.Errorf("hub: list: %w", err)
	}
	c.mu.Lock()
	c.lastList = append([]repo.Metadata(nil), out...)
	c.mu.Unlock()
	return out, nil
}

// Delete removes a model from the hub and the local cache. Deletes are
// not retried.
func (c *Client) Delete(id string) (err error) {
	done := c.obs.TimeOp("hub_client_delete")
	defer func() { done(err) }()
	err = c.do(false,
		func() (*http.Request, error) { return http.NewRequest(http.MethodDelete, c.modelURL(id), nil) },
		func(resp *http.Response) error { return expectStatus(resp, http.StatusNoContent) })
	if err != nil {
		return fmt.Errorf("hub: delete %s: %w", id, err)
	}
	c.mu.Lock()
	c.cache.Remove(id)
	c.mu.Unlock()
	return nil
}

// MirrorError aggregates the per-model failures of a partially
// successful Mirror.
type MirrorError struct {
	// Errs maps model ID to the error that lost it.
	Errs map[string]error
}

// Error lists the failed models in a stable order.
func (e *MirrorError) Error() string {
	ids := make([]string, 0, len(e.Errs))
	for id := range e.Errs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = id + ": " + e.Errs[id].Error()
	}
	return fmt.Sprintf("hub: mirror: %d model(s) failed: %s", len(ids), strings.Join(parts, "; "))
}

func readError(resp *http.Response) string {
	b, err := io.ReadAll(io.LimitReader(resp.Body, 512))
	if err != nil || len(b) == 0 {
		return resp.Status
	}
	return resp.Status + ": " + strings.TrimSpace(string(b))
}
