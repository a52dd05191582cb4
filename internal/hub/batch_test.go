package hub

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sommelier/internal/repo"
)

// newBatchHub builds a hub whose batch behavior is driven by opts, plus
// a client against it.
func newBatchHub(t testing.TB, opts ...ServerOption) (*httptest.Server, *Client) {
	t.Helper()
	srv, err := NewServer(repo.NewInMemory(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	client, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	return ts, client
}

// echoQuerier answers with the query string; "boom" fails.
func echoQuerier(ctx context.Context, q string) (any, error) {
	if q == "boom" {
		return nil, fmt.Errorf("bad query")
	}
	return []string{q}, nil
}

// TestQueryBatchOverSingleQuerier pins the compatibility rule: any hub
// with a single-query Querier answers POST /v1/query by looping it, with
// per-query error slots instead of whole-batch failure.
func TestQueryBatchOverSingleQuerier(t *testing.T) {
	_, client := newBatchHub(t, WithQuerier(echoQuerier))
	qs := []string{"alpha", "boom", "beta"}
	raws, qerrs, err := client.QueryBatch(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(raws) != 3 || len(qerrs) != 3 {
		t.Fatalf("misaligned batch response: %d results, %d errors", len(raws), len(qerrs))
	}
	for _, i := range []int{0, 2} {
		if qerrs[i] != nil {
			t.Fatalf("slot %d: unexpected error %v", i, qerrs[i])
		}
		want := fmt.Sprintf("[%q]", qs[i])
		if string(raws[i]) != want {
			t.Fatalf("slot %d: got %s, want %s", i, raws[i], want)
		}
	}
	if qerrs[1] == nil || !strings.Contains(qerrs[1].Message, "bad query") {
		t.Fatalf("slot 1: got %v, want per-query bad-query error", qerrs[1])
	}
}

// TestQueryBatchNativeQuerier pins that a registered BatchQuerier is
// preferred over looping the single querier, and that its error codes
// survive the wire.
func TestQueryBatchNativeQuerier(t *testing.T) {
	var sawBatch bool
	_, client := newBatchHub(t,
		WithQuerier(echoQuerier),
		WithBatchQuerier(func(ctx context.Context, qs []string) ([]any, []*QueryError) {
			sawBatch = true
			results := make([]any, len(qs))
			qerrs := make([]*QueryError, len(qs))
			for i, q := range qs {
				if q == "ghost" {
					qerrs[i] = &QueryError{Message: "no such reference", Code: CodeUnknownReference}
					continue
				}
				results[i] = []string{q}
			}
			return results, qerrs
		}))
	raws, qerrs, err := client.QueryBatch(context.Background(), []string{"alpha", "ghost"})
	if err != nil {
		t.Fatal(err)
	}
	if !sawBatch {
		t.Fatal("hub looped the single querier despite a registered BatchQuerier")
	}
	if qerrs[0] != nil || string(raws[0]) != `["alpha"]` {
		t.Fatalf("slot 0: got %s / %v", raws[0], qerrs[0])
	}
	if qerrs[1] == nil || qerrs[1].Code != CodeUnknownReference {
		t.Fatalf("slot 1: got %v, want code %q", qerrs[1], CodeUnknownReference)
	}
}

// TestQueryBatchRejections pins the failure edges: a hub with no querier
// at all answers 501, which reaches the caller as a *StatusError, and
// malformed or empty batches answer 400.
func TestQueryBatchRejections(t *testing.T) {
	_, client := newBatchHub(t)
	_, _, err := client.QueryBatch(context.Background(), []string{"alpha"})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusNotImplemented {
		t.Fatalf("bare hub: err = %v, want StatusError{Code: 501}", err)
	}

	ts2, client2 := newBatchHub(t, WithQuerier(echoQuerier))
	for _, body := range []string{`{"queries":[]}`, `{not json`} {
		resp, err := ts2.Client().Post(ts2.URL+"/v1/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	if _, _, err := client2.QueryBatch(context.Background(), nil); err == nil {
		t.Fatal("empty batch accepted by client")
	}
}
