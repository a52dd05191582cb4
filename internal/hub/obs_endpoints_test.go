package hub

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"sommelier/internal/obs"
	"sommelier/internal/repo"
)

// newObservedHub builds a hub whose server and client share one
// observer, plus an echo querier, so one /v1/metrics snapshot carries
// endpoint, client, and query metrics together.
func newObservedHub(t testing.TB) (*httptest.Server, *Client, *obs.Observer) {
	t.Helper()
	store := repo.NewInMemory()
	o := obs.New()
	srv, err := NewServer(store,
		WithServerObserver(o),
		WithQuerier(func(ctx context.Context, q string) (any, error) {
			if q == "boom" {
				return nil, fmt.Errorf("bad query")
			}
			return []string{"m@1"}, nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	client, err := NewClient(ts.URL, ts.Client(), WithObserver(o))
	if err != nil {
		t.Fatal(err)
	}
	return ts, client, o
}

// TestMetricsEndpoint is the acceptance check for the unified snapshot:
// after an upload, a fetch, and a query, GET /v1/metrics returns request
// counts and latency percentiles for each endpoint in one obs.Snapshot
// JSON document — the same shape obs.Snapshot marshals to directly.
func TestMetricsEndpoint(t *testing.T) {
	ts, client, _ := newObservedHub(t)

	id, _, err := client.PublishModel(testModel(t, "observed", 1))
	if err != nil {
		t.Fatal(err)
	}
	// Fetch over raw HTTP: client.Load would serve the model from its
	// write-through cache without touching the fetch endpoint.
	if resp, err := ts.Client().Get(ts.URL + "/v1/models/" + id); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("fetch status = %d", resp.StatusCode)
		}
	}
	if resp, err := ts.Client().Get(ts.URL + "/v1/query?q=ok"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query status = %d", resp.StatusCode)
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("metrics body is not a Snapshot: %v", err)
	}

	for _, op := range []string{"upload", "fetch", "query"} {
		if got := snap.Counters["hub_"+op+"_requests_total"]; got < 1 {
			t.Errorf("hub_%s_requests_total = %d, want >= 1", op, got)
		}
		h, ok := snap.Histograms["hub_"+op+"_ms"]
		if !ok {
			t.Errorf("no hub_%s_ms histogram in snapshot", op)
			continue
		}
		if h.Count < 1 {
			t.Errorf("hub_%s_ms count = %d, want >= 1", op, h.Count)
		}
		if h.P50 > h.P95 || h.P95 > h.P99 || h.P99 > h.Max {
			t.Errorf("hub_%s_ms percentiles not monotone: p50=%v p95=%v p99=%v max=%v",
				op, h.P50, h.P95, h.P99, h.Max)
		}
	}
	// The shared observer folds client-side gauges into the same
	// snapshot — satellite 3's one-shape contract.
	if _, ok := snap.Gauges["hub_client_breaker_state"]; !ok {
		t.Error("client breaker gauge missing from the unified snapshot")
	}
}

// TestMetricsEndpointCountsErrors checks 4xx responses land in the
// per-endpoint error counters.
func TestMetricsEndpointCountsErrors(t *testing.T) {
	ts, _, o := newObservedHub(t)
	resp, err := ts.Client().Get(ts.URL + "/v1/models/ghost@9")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("fetch ghost status = %d", resp.StatusCode)
	}
	snap := o.Snapshot()
	if got := snap.Counters["hub_fetch_errors_total"]; got != 1 {
		t.Fatalf("hub_fetch_errors_total = %d, want 1", got)
	}
}

// TestMetricsCountFetchRepresentations: /v1/metrics says how many
// packs the fetch endpoint handed out and how many body bytes went with
// them — a model GET counts one pack and its body; a manifest GET and a
// 404 count neither. (Hubs without an observer serve packs all through
// pack_test.go.)
func TestMetricsCountFetchRepresentations(t *testing.T) {
	ts, client, o := newObservedHub(t)
	id, _, err := client.PublishModel(testModel(t, "counted", 2))
	if err != nil {
		t.Fatal(err)
	}
	var served int64
	for _, url := range []string{"/v1/models/" + id, "/v1/models/" + id + "?format=manifest", "/v1/models/ghost@1"} {
		resp, err := ts.Client().Get(ts.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.Header.Get("Content-Type") == ContentTypePack {
			served += n
		}
	}
	snap := o.Snapshot()
	if pack := snap.Counters["hub_fetch_pack_total"]; pack != 1 {
		t.Errorf("hub_fetch_pack_total = %d, want 1", pack)
	}
	if got := snap.Counters["hub_fetch_bytes_total"]; got != served || got == 0 {
		t.Errorf("hub_fetch_bytes_total = %d, the pack was %d bytes", got, served)
	}
}

// TestQueryEndpoint pins the /v1/query contract: echo on success,
// 400 on missing q or query error, 501 when the hub has no engine.
func TestQueryEndpoint(t *testing.T) {
	ts, _, _ := newObservedHub(t)

	resp, err := ts.Client().Get(ts.URL + "/v1/query?q=ok")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out struct {
		Query   string   `json:"query"`
		Results []string `json:"results"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("bad query response %q: %v", body, err)
	}
	if out.Query != "ok" || len(out.Results) != 1 {
		t.Fatalf("query response = %+v", out)
	}

	for _, path := range []string{"/v1/query", "/v1/query?q=boom"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET %s status = %d, want 400", path, resp.StatusCode)
		}
	}

	// A hub without a querier declares the endpoint unimplemented.
	bare, err := NewServer(repo.NewInMemory())
	if err != nil {
		t.Fatal(err)
	}
	bts := httptest.NewServer(bare)
	defer bts.Close()
	resp, err = bts.Client().Get(bts.URL + "/v1/query?q=ok")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("bare hub query status = %d, want 501", resp.StatusCode)
	}
}

// TestTracezEndpoint checks span recording: instrumented requests leave
// hub.<op> spans in the ring, and a hub without an observer still
// serves a valid (empty) JSON array.
func TestTracezEndpoint(t *testing.T) {
	ts, client, _ := newObservedHub(t)
	if _, _, err := client.PublishModel(testModel(t, "traced", 1)); err != nil {
		t.Fatal(err)
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/tracez")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var spans []obs.SpanRecord
	if err := json.NewDecoder(resp.Body).Decode(&spans); err != nil {
		t.Fatalf("tracez body is not a span list: %v", err)
	}
	found := false
	for _, s := range spans {
		if s.Name == "hub.upload" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no hub.upload span in %d recorded spans", len(spans))
	}

	bare, err := NewServer(repo.NewInMemory())
	if err != nil {
		t.Fatal(err)
	}
	bts := httptest.NewServer(bare)
	defer bts.Close()
	resp, err = bts.Client().Get(bts.URL + "/v1/tracez")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var empty []obs.SpanRecord
	if err := json.NewDecoder(resp.Body).Decode(&empty); err != nil {
		t.Fatalf("unobserved tracez not valid JSON: %v", err)
	}
	if len(empty) != 0 {
		t.Fatalf("unobserved hub recorded %d spans", len(empty))
	}
}
