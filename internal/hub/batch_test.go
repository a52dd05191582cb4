package hub

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sommelier/internal/query"
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

// echoQuerier answers with one result named after the query; "boom"
// fails and "ghost" names a reference the catalog does not hold.
func echoQuerier(ctx context.Context, q string) (any, error) {
	switch q {
	case "boom":
		return nil, fmt.Errorf("bad query")
	case "ghost":
		return nil, fmt.Errorf("%w: %q is not indexed", query.ErrUnknownReference, q)
	}
	return []query.Result{{ID: q}}, nil
}

// TestQueryBatchOverSingleQuerier pins the compatibility rule: any hub
// with a single-query Querier answers POST /v1/query by looping it, with
// per-query error slots instead of whole-batch failure, and codes an
// unknown reference itself.
func TestQueryBatchOverSingleQuerier(t *testing.T) {
	_, client := newBatchHub(t, WithQuerier(echoQuerier))
	qs := []string{"alpha", "boom", "beta", "ghost"}
	results, qerrs, err := client.QueryBatch(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(qs) || len(qerrs) != len(qs) {
		t.Fatalf("misaligned batch response: %d results, %d errors", len(results), len(qerrs))
	}
	for _, i := range []int{0, 2} {
		if qerrs[i] != nil {
			t.Fatalf("slot %d: unexpected error %v", i, qerrs[i])
		}
		if len(results[i]) != 1 || results[i][0].ID != qs[i] {
			t.Fatalf("slot %d: got %+v, want one result %q", i, results[i], qs[i])
		}
	}
	if qerrs[1] == nil || !strings.Contains(qerrs[1].Message, "bad query") || qerrs[1].Code != "" {
		t.Fatalf("slot 1: got %v, want an uncoded bad-query error", qerrs[1])
	}
	if qerrs[3] == nil || qerrs[3].Code != CodeUnknownReference {
		t.Fatalf("slot 3: got %v, want code %q", qerrs[3], CodeUnknownReference)
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
				results[i] = []query.Result{{ID: q}}
			}
			return results, qerrs
		}))
	results, qerrs, err := client.QueryBatch(context.Background(), []string{"alpha", "ghost"})
	if err != nil {
		t.Fatal(err)
	}
	if !sawBatch {
		t.Fatal("hub looped the single querier despite a registered BatchQuerier")
	}
	if qerrs[0] != nil || len(results[0]) != 1 || results[0][0].ID != "alpha" {
		t.Fatalf("slot 0: got %+v / %v", results[0], qerrs[0])
	}
	if qerrs[1] == nil || qerrs[1].Code != CodeUnknownReference {
		t.Fatalf("slot 1: got %v, want code %q", qerrs[1], CodeUnknownReference)
	}
}

// TestQueryBatchRejections pins the failure edges: a hub with no querier
// at all answers 501, which reaches the caller as a *StatusError, and
// malformed or empty batches answer 400 in either body form.
func TestQueryBatchRejections(t *testing.T) {
	_, client := newBatchHub(t)
	_, _, err := client.QueryBatch(context.Background(), []string{"alpha"})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusNotImplemented {
		t.Fatalf("bare hub: err = %v, want StatusError{Code: 501}", err)
	}

	ts2, client2 := newBatchHub(t, WithQuerier(echoQuerier))
	for _, tc := range []struct{ contentType, body string }{
		{"application/json", `{"queries":[]}`},
		{"application/json", `{not json`},
		{ContentTypeQueries, string(appendQueries(nil, nil))},
		{ContentTypeQueries, "\x00\x00\x00\x05junk"},
	} {
		resp, err := ts2.Client().Post(ts2.URL+"/v1/query", tc.contentType, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s body %q: status %d, want 400", tc.contentType, tc.body, resp.StatusCode)
		}
	}
	if _, _, err := client2.QueryBatch(context.Background(), nil); err == nil {
		t.Fatal("empty batch accepted by client")
	}
}
