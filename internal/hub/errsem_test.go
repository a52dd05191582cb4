package hub

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sommelier/internal/query"
	"sommelier/internal/repo"
)

// queryHub starts a hub whose querier echoes canned results, fronted by
// an optional flaky handler.
func queryHub(t *testing.T, querier Querier, opts ...Option) (*httptest.Server, *Client) {
	t.Helper()
	srv, err := NewServer(repo.NewInMemory(), WithQuerier(querier))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	client, err := NewClient(ts.URL, ts.Client(), fastOpts(opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return ts, client
}

// TestClientQueryRoundTrip drives Client.Query end to end: the results
// come back typed, and a querier rejection surfaces as a *StatusError
// with the 4xx code — reachable via errors.As through the operation
// wrapping — that wraps the hub's *QueryError.
func TestClientQueryRoundTrip(t *testing.T) {
	calls := 0
	_, client := queryHub(t, func(ctx context.Context, q string) (any, error) {
		calls++
		if strings.Contains(q, "boom") {
			return nil, errors.New("no such reference")
		}
		return []query.Result{{ID: "m@1", Level: 3}}, nil
	})

	rs, err := client.Query(context.Background(), "SELECT CORR \"m@1\"")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(rs) != 1 || rs[0].ID != "m@1" || rs[0].Level != 3 {
		t.Fatalf("results = %+v", rs)
	}

	calls = 0
	_, err = client.Query(context.Background(), "boom")
	var se *StatusError
	if !errors.As(err, &se) {
		t.Fatalf("querier rejection = %v, want *StatusError via errors.As", err)
	}
	if se.Code != http.StatusBadRequest {
		t.Errorf("StatusError.Code = %d, want 400", se.Code)
	}
	var qe *QueryError
	if !errors.As(err, &qe) || qe.Message != "no such reference" || qe.Code != "" {
		t.Errorf("querier rejection = %v, want the hub's uncoded *QueryError via errors.As", err)
	}
	if calls != 1 {
		t.Errorf("4xx was attempted %d times, want 1 (no retries on deliberate answers)", calls)
	}
}

// TestClientRefusesJSONAnswers: the client reads only the results frame.
// A hub whose querier answers something other than []query.Result — a
// coordinator-mode hub, say — answers JSON even when asked for the
// frame, and both Query and QueryBatch report that as an error instead
// of guessing at its shape.
func TestClientRefusesJSONAnswers(t *testing.T) {
	_, client := queryHub(t, func(context.Context, string) (any, error) {
		return map[string]any{"results": []query.Result{{ID: "m@1"}}}, nil
	})
	if rs, err := client.Query(context.Background(), "q"); err == nil || !strings.Contains(err.Error(), "not a results frame") {
		t.Fatalf("Query of a JSON-answering hub = %+v, %v; want a not-a-frame error", rs, err)
	}
	if rss, _, err := client.QueryBatch(context.Background(), []string{"a", "b"}); err == nil || !strings.Contains(err.Error(), "not a results frame") {
		t.Fatalf("QueryBatch of a JSON-answering hub = %+v, %v; want a not-a-frame error", rss, err)
	}
}

// TestQueryRetriesTransientFailures confirms queries ride the idempotent
// retry path: two 503s then success must be invisible to the caller.
func TestQueryRetriesTransientFailures(t *testing.T) {
	fails := 2
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", func(w http.ResponseWriter, r *http.Request) {
		if fails > 0 {
			fails--
			http.Error(w, "warming up", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", ContentTypeResults)
		_, _ = w.Write(appendResults(nil, [][]query.Result{{{ID: "ok"}}}, []*QueryError{nil}))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	client, err := NewClient(ts.URL, ts.Client(), fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := client.Query(context.Background(), "q")
	if err != nil {
		t.Fatalf("Query after transient 503s: %v", err)
	}
	if len(rs) != 1 || rs[0].ID != "ok" {
		t.Fatalf("results = %+v", rs)
	}
	if got := client.Stats().Retries; got != 2 {
		t.Errorf("retries = %d, want 2", got)
	}
}

// TestAttemptTimeoutVsCallerDeadline is the error-semantics contract the
// coordinator's failover ladder depends on: a slow hub that blows the
// client's per-attempt timeout yields ErrAttemptTimeout ("this replica
// is slow — try another"), while the caller's own context expiring
// yields that context's error and nothing else ("stop asking anyone").
func TestAttemptTimeoutVsCallerDeadline(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(5 * time.Second):
		case <-r.Context().Done():
		}
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	slowClient := func(timeout time.Duration) *Client {
		c, err := NewClient(ts.URL, ts.Client(),
			WithTimeout(timeout), WithRetries(0), WithBreaker(0, 0))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	// Per-attempt timeout fires first: the failure names the slow hub.
	_, err := slowClient(30*time.Millisecond).Query(context.Background(), "q")
	if !errors.Is(err, ErrAttemptTimeout) {
		t.Fatalf("slow-hub error = %v, want errors.Is(_, ErrAttemptTimeout)", err)
	}
	if errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("slow-hub error %v must not look like an open breaker", err)
	}

	// Caller deadline fires first: the failure is the caller's own
	// context error, NOT an attempt timeout.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err = slowClient(10*time.Second).Query(ctx, "q")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("caller-deadline error = %v, want errors.Is(_, context.DeadlineExceeded)", err)
	}
	if errors.Is(err, ErrAttemptTimeout) {
		t.Fatalf("caller-deadline error %v must not be blamed on the hub", err)
	}
}

// TestCallerCancelAbortsRetryBackoff: cancelling mid-backoff must end
// the operation promptly, surface the cancellation, and not charge the
// breaker for the caller's change of heart.
func TestCallerCancelAbortsRetryBackoff(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	client, err := NewClient(ts.URL, ts.Client(),
		WithTimeout(time.Second), WithRetries(5),
		WithBackoff(10*time.Second, 10*time.Second), // park the retry loop in backoff
		WithBreaker(100, time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(50 * time.Millisecond); cancel() }()
	start := time.Now()
	_, err = client.Query(ctx, "q")
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled query took %v; backoff sleep ignored the context", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want errors.Is(_, context.Canceled)", err)
	}
	// The one real attempt's 503 should still be reported alongside.
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Logf("note: 503 cause not preserved in %v", err)
	}
}

// TestCircuitOpenDistinguishable trips the breaker and checks the
// fail-fast error is ErrCircuitOpen and only ErrCircuitOpen.
func TestCircuitOpenDistinguishable(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	client, err := NewClient(ts.URL, ts.Client(),
		WithTimeout(time.Second), WithRetries(0),
		WithBreaker(2, time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := client.Query(context.Background(), "q"); err == nil {
			t.Fatal("expected 503 failure")
		}
	}
	_, err = client.Query(context.Background(), "q")
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("post-trip error = %v, want errors.Is(_, ErrCircuitOpen)", err)
	}
	if errors.Is(err, ErrAttemptTimeout) || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("breaker error %v must not look like a timeout", err)
	}
	var se *StatusError
	if errors.As(err, &se) {
		t.Fatalf("breaker error %v must not carry a status code — the hub was never asked", err)
	}
}

// TestHealthzShardInfo: a shard-aware hub advertises its slot in the
// cluster; a standalone hub's healthz stays shard-free.
func TestHealthzShardInfo(t *testing.T) {
	srv, err := NewServer(repo.NewInMemory(), WithShardInfo(2, 8))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	var health map[string]any
	resp, err := ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health["shard"] != float64(2) || health["shards"] != float64(8) {
		t.Fatalf("healthz = %v, want shard 2 of 8", health)
	}

	bare, err := NewServer(repo.NewInMemory())
	if err != nil {
		t.Fatal(err)
	}
	bts := httptest.NewServer(bare)
	defer bts.Close()
	resp, err = bts.Client().Get(bts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	health = nil
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if _, ok := health["shard"]; ok {
		t.Fatalf("standalone healthz = %v, must not claim a shard", health)
	}
}
