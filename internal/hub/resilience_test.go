package hub

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sommelier/internal/faults"
	"sommelier/internal/repo"
)

// fastOpts are resilience knobs tuned for tests: aggressive retries
// with near-zero backoff so fault-heavy runs stay fast.
func fastOpts(extra ...Option) []Option {
	opts := []Option{
		WithTimeout(5 * time.Second),
		WithRetries(6),
		WithBackoff(time.Millisecond, 4*time.Millisecond),
	}
	return append(opts, extra...)
}

// newFaultyHub starts a healthy hub server and a client whose transport
// injects faults per cfg.
func newFaultyHub(t *testing.T, cfg faults.Config, opts ...Option) (*httptest.Server, *Client, *repo.Repository, *faults.Injector) {
	t.Helper()
	store := repo.NewInMemory()
	srv, err := NewServer(store)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	inj, err := faults.NewInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hc := &http.Client{Transport: faults.NewTransport(ts.Client().Transport, inj)}
	client, err := NewClient(ts.URL, hc, fastOpts(opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return ts, client, store, inj
}

// TestMirrorRecoversFromTransientFaults is the headline acceptance
// check: at a 30% transient-error rate (connection errors, 5xx,
// truncated bodies) Mirror still copies every model — retries recover
// each transient failure, deterministically under the injector seed.
func TestMirrorRecoversFromTransientFaults(t *testing.T) {
	cfg := faults.Config{
		Seed:            1234,
		ConnErrorRate:   0.15,
		ServerErrorRate: 0.10,
		TruncateRate:    0.05,
	}
	_, client, store, inj := newFaultyHub(t, cfg)
	const models = 8
	for i := 0; i < models; i++ {
		if _, err := store.Publish(testModel(t, fmt.Sprintf("m%02d", i), uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	local := repo.NewInMemory()
	n, err := client.Mirror(local)
	if err != nil {
		t.Fatalf("mirror under 30%% faults failed: %v", err)
	}
	if n != models || local.Len() != models {
		t.Fatalf("mirrored %d models, local has %d, want %d — models lost to transient faults",
			n, local.Len(), models)
	}
	// Mirrored models are intact, not truncated.
	for _, md := range local.List() {
		if _, err := local.Load(md.ID); err != nil {
			t.Fatalf("mirrored model %s corrupt: %v", md.ID, err)
		}
	}
	if inj.Counts().Injected() == 0 {
		t.Fatal("injector never fired; test exercised nothing")
	}
	if client.Stats().Retries == 0 {
		t.Fatal("no retries recorded despite injected faults")
	}
}

// TestHardDownHubStaleCacheAndBreaker covers graceful degradation: with
// the hub hard-down, a previously fetched model loads from the stale
// cache, an unseen model fails fast with ErrCircuitOpen once the
// breaker trips, and List serves its last-known-good snapshot.
func TestHardDownHubStaleCacheAndBreaker(t *testing.T) {
	store := repo.NewInMemory()
	srv, err := NewServer(store)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	client, err := NewClient(ts.URL, ts.Client(),
		fastOpts(WithRetries(1), WithBreaker(3, time.Minute))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Publish(testModel(t, "seen", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Load("seen@1"); err != nil {
		t.Fatal(err)
	}
	if list, err := client.List(); err != nil || len(list) != 1 {
		t.Fatalf("healthy list = %v, %v", list, err)
	}

	ts.Close() // the hub goes hard-down

	// Previously fetched model: served from the (stale) cache.
	if _, err := client.Load("seen@1"); err != nil {
		t.Fatalf("stale-cache load failed: %v", err)
	}
	// Unseen models fail — and once the breaker trips, they fail fast
	// with ErrCircuitOpen instead of hammering a dead hub.
	var lastErr error
	for i := 0; i < 5; i++ {
		_, lastErr = client.Load(fmt.Sprintf("unseen%d@1", i))
		if lastErr == nil {
			t.Fatal("load of unseen model succeeded against a dead hub")
		}
	}
	if !errors.Is(lastErr, ErrCircuitOpen) {
		t.Fatalf("after repeated failures err = %v, want ErrCircuitOpen", lastErr)
	}
	if st := client.Stats(); st.BreakerState != "open" || st.BreakerOpens == 0 {
		t.Fatalf("breaker stats = %+v, want open", st)
	}
	// List degrades to the last-known-good snapshot, counted as stale.
	list, err := client.List()
	if err != nil || len(list) != 1 || list[0].ID != "seen@1" {
		t.Fatalf("stale list = %v, %v", list, err)
	}
	st := client.Stats()
	if st.StaleLists == 0 {
		t.Fatalf("stats = %+v, want stale list recorded", st)
	}
	if st.StaleLoads == 0 {
		// The breaker is open now; a cached load counts as stale.
		if _, err := client.Load("seen@1"); err != nil {
			t.Fatal(err)
		}
		if client.Stats().StaleLoads == 0 {
			t.Fatal("stale load not recorded while breaker open")
		}
	}
}

// TestBreakerHalfOpenRecovery drives the full breaker lifecycle against
// a flaky-then-recovering hub: closed → open (shedding traffic reaches
// no backend) → half-open probe after cooldown → closed again.
func TestBreakerHalfOpenRecovery(t *testing.T) {
	var healthy atomic.Bool
	var hits atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if !healthy.Load() {
			http.Error(w, "down for maintenance", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode([]metaJSON{})
	}))
	defer backend.Close()

	const cooldown = 50 * time.Millisecond
	client, err := NewClient(backend.URL, backend.Client(),
		WithTimeout(time.Second), WithRetries(0), WithBackoff(time.Millisecond, time.Millisecond),
		WithBreaker(2, cooldown))
	if err != nil {
		t.Fatal(err)
	}

	// Two consecutive failures trip the breaker.
	for i := 0; i < 2; i++ {
		if _, err := client.List(); err == nil {
			t.Fatal("expected failure from unhealthy hub")
		}
	}
	if st := client.Stats(); st.BreakerState != "open" {
		t.Fatalf("breaker state = %s, want open", st.BreakerState)
	}
	// While open, calls are shed without touching the backend.
	before := hits.Load()
	if _, err := client.List(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	if hits.Load() != before {
		t.Fatal("open breaker let a request through")
	}
	// After the cooldown the hub has recovered; the half-open probe
	// succeeds and closes the circuit.
	healthy.Store(true)
	time.Sleep(cooldown + 20*time.Millisecond)
	if _, err := client.List(); err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	if st := client.Stats(); st.BreakerState != "closed" {
		t.Fatalf("breaker state = %s, want closed after recovery", st.BreakerState)
	}
	if _, err := client.List(); err != nil {
		t.Fatalf("post-recovery list failed: %v", err)
	}
}

// TestBreakerHalfOpenFailureReopens: a failed probe sends the breaker
// straight back to open for another cooldown.
func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	b := newBreaker(2, time.Hour)
	fake := time.Unix(0, 0)
	b.now = func() time.Time { return fake }
	b.failure()
	b.failure()
	if err := b.allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("allow after trip = %v", err)
	}
	fake = fake.Add(2 * time.Hour)
	if err := b.allow(); err != nil {
		t.Fatalf("half-open probe not allowed: %v", err)
	}
	// A second caller during the probe is still shed.
	if err := b.allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("concurrent probe allowed: %v", err)
	}
	b.failure()
	if err := b.allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("breaker not re-opened after failed probe: %v", err)
	}
	fake = fake.Add(2 * time.Hour)
	if err := b.allow(); err != nil {
		t.Fatal(err)
	}
	b.success()
	if state, _ := b.snapshot(); state != stateClosed {
		t.Fatalf("state = %s, want closed", stateName(state))
	}
}

// TestClientCacheEviction: the LRU cap bounds the cache, and evicted
// models are re-fetched from the hub.
func TestClientCacheEviction(t *testing.T) {
	ts, _, store := newHub(t)
	client, err := NewClient(ts.URL, ts.Client(), WithCacheCap(2))
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 3)
	for i := range ids {
		m := testModel(t, fmt.Sprintf("c%d", i), uint64(i+1))
		if _, err := store.Publish(m); err != nil {
			t.Fatal(err)
		}
		ids[i] = m.Name + "@" + m.Version
		if _, err := client.Load(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	if st := client.Stats(); st.CachedModels != 2 {
		t.Fatalf("cache holds %d models, want cap 2", st.CachedModels)
	}
	// ids[0] was evicted: deleting it hub-side makes the re-fetch fail,
	// proving the load goes back to the network.
	if err := store.Delete(ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Load(ids[0]); err == nil {
		t.Fatal("evicted model served from cache")
	}
	// The resident entries still serve from cache.
	if err := store.Delete(ids[2]); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Load(ids[2]); err != nil {
		t.Fatalf("resident cache entry lost: %v", err)
	}
}

// TestMirrorPartialFailure: Mirror skips models it cannot fetch and
// reports them, instead of aborting the whole run.
func TestMirrorPartialFailure(t *testing.T) {
	store := repo.NewInMemory()
	for _, name := range []string{"good", "bad"} {
		if _, err := store.Publish(testModel(t, name, 9)); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := NewServer(store)
	if err != nil {
		t.Fatal(err)
	}
	// A hub that permanently refuses one model.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/bad@1") {
			http.Error(w, "storage shard lost", http.StatusInternalServerError)
			return
		}
		srv.ServeHTTP(w, r)
	}))
	defer ts.Close()
	client, err := NewClient(ts.URL, ts.Client(), fastOpts(WithRetries(1))...)
	if err != nil {
		t.Fatal(err)
	}
	local := repo.NewInMemory()
	n, err := client.Mirror(local)
	if n != 1 || local.Len() != 1 {
		t.Fatalf("mirrored %d (local %d), want the 1 healthy model", n, local.Len())
	}
	var merr *MirrorError
	if !errors.As(err, &merr) {
		t.Fatalf("err = %v, want *MirrorError", err)
	}
	if len(merr.Errs) != 1 || merr.Errs["bad@1"] == nil {
		t.Fatalf("mirror error = %+v, want bad@1 reported", merr.Errs)
	}
	if !strings.Contains(merr.Error(), "bad@1") {
		t.Fatalf("error text %q does not name the lost model", merr.Error())
	}
}

// TestServerDeleteNonexistent404: the DELETE of an unknown model is a
// 404, not a success or a 500.
func TestServerDeleteNonexistent404(t *testing.T) {
	ts, client, _ := newHub(t)
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/models/ghost@1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE ghost status = %d, want 404", resp.StatusCode)
	}
	// The client surfaces it as a non-retryable error.
	if err := client.Delete("ghost@1"); err == nil {
		t.Fatal("client.Delete of nonexistent model succeeded")
	}
}

// TestServerGetNotFoundVsInternal: a missing model is 404; a failing
// store is 500 (and thus retryable client-side).
func TestServerGetNotFoundVsInternal(t *testing.T) {
	ts, _, _ := newHub(t)
	resp, err := http.Get(ts.URL + "/v1/models/ghost@1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET ghost status = %d, want 404", resp.StatusCode)
	}

	// A store with injected faults maps to 500.
	inj, err := faults.NewInjector(faults.Config{ServerErrorRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(faults.NewFlakyStore(repo.NewInMemory(), inj))
	if err != nil {
		t.Fatal(err)
	}
	flaky := httptest.NewServer(srv)
	defer flaky.Close()
	resp, err = http.Get(flaky.URL + "/v1/models/x@1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("GET on faulty store status = %d, want 500", resp.StatusCode)
	}
}

// TestMismatchedPutPreservesExisting: a PUT whose body identity
// disagrees with the path must not destroy the model already stored
// under the body's identity.
func TestMismatchedPutPreservesExisting(t *testing.T) {
	ts, client, store := newHub(t)
	m := testModel(t, "honest", 4)
	if _, _, err := client.PublishModel(m); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/models/liar@9", bytes.NewReader(packBytes(t, m)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ContentTypePack)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	// The pre-existing honest@1 survived the mismatched upload.
	if store.Len() != 1 {
		t.Fatalf("store has %d models, want honest@1 preserved", store.Len())
	}
	if _, err := store.Load("honest@1"); err != nil {
		t.Fatalf("honest@1 destroyed by mismatched PUT: %v", err)
	}
}

// TestServerHealthz: the liveness endpoint reports status and count.
func TestServerHealthz(t *testing.T) {
	ts, client, _ := newHub(t)
	if _, _, err := client.PublishModel(testModel(t, "h", 1)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	var got struct {
		Status string `json:"status"`
		Models int    `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Status != "ok" || got.Models != 1 {
		t.Fatalf("healthz = %+v", got)
	}
	post, err := http.Post(ts.URL+"/v1/healthz", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST healthz status = %d", post.StatusCode)
	}
}

// TestServerPutBodyLimit: oversized uploads are rejected with 413 and
// leave no residue.
func TestServerPutBodyLimit(t *testing.T) {
	store := repo.NewInMemory()
	srv, err := NewServer(store, WithMaxBodyBytes(128))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	body := packBytes(t, testModel(t, "big", 5))
	if len(body) <= 128 {
		t.Fatalf("test model too small (%d bytes) to exceed the limit", len(body))
	}
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/models/big@1", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ContentTypePack)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	if store.Len() != 0 {
		t.Fatal("oversized upload left residue")
	}
}

// TestConcurrentLoadsUnderFaults drives concurrent cache/breaker/retry
// paths for the race detector.
func TestConcurrentLoadsUnderFaults(t *testing.T) {
	cfg := faults.Config{Seed: 99, ConnErrorRate: 0.1, ServerErrorRate: 0.1}
	_, client, store, _ := newFaultyHub(t, cfg, WithCacheCap(4))
	const models = 8
	for i := 0; i < models; i++ {
		if _, err := store.Publish(testModel(t, fmt.Sprintf("r%d", i), uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 20; i++ {
				id := fmt.Sprintf("r%d@1", (g+i)%models)
				// Transient faults may still exhaust retries here;
				// the point is exercising the concurrent paths.
				_, _ = client.Load(id)
				_, _ = client.List()
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	_ = client.Stats()
}

// TestClientClosesEveryResponseBody answers the client's calls with
// 200, 201, 204, 400, 404 and 500, and a 503 that a GET retries, and
// checks that every response body was closed: an unclosed body pins
// its connection and the transport cannot reuse it.
func TestClientClosesEveryResponseBody(t *testing.T) {
	var mu sync.Mutex
	plan := map[string][]int{
		"/v1/models":     {http.StatusServiceUnavailable, http.StatusOK},
		"/v1/chunks/h":   {http.StatusCreated},
		"/v1/models/a@1": {http.StatusNoContent},
		"/v1/models/b@1": {http.StatusBadRequest},
		"/v1/models/c@1": {http.StatusNotFound},
		"/v1/models/d@1": {http.StatusInternalServerError},
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		codes := plan[r.URL.Path]
		code := codes[0]
		plan[r.URL.Path] = codes[1:]
		mu.Unlock()
		if code == http.StatusOK {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(code)
			fmt.Fprint(w, "[]")
			return
		}
		http.Error(w, http.StatusText(code), code)
	}))
	defer ts.Close()
	tr := newBodyCounter(ts.Client().Transport)
	c, err := NewClient(ts.URL, &http.Client{Transport: tr}, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.List(); err != nil {
		t.Fatalf("List after a retried 503: %v", err)
	}
	if err := c.PutChunk("h", []byte("x")); err != nil {
		t.Fatalf("PutChunk: %v", err)
	}
	if err := c.Delete("a@1"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := c.Delete("b@1"); err == nil {
		t.Error("Delete answered 400 succeeded")
	}
	if _, err := c.Load("c@1"); err == nil {
		t.Error("Load answered 404 succeeded")
	}
	if err := c.Delete("d@1"); err == nil {
		t.Error("Delete answered 500 succeeded")
	}
	if n := tr.answers(0); n != 7 {
		t.Fatalf("the hub gave %d answers, want 7", n)
	}
	if closed := tr.closedBodies(); closed != 7 {
		t.Errorf("the client closed %d of 7 response bodies", closed)
	}
}
