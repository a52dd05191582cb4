package hub

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"net/url"
	"testing"

	"sommelier/internal/query"
	"sommelier/internal/resource"
)

// benchAnswers keeps the benchmarks' decoded answers alive.
var benchAnswers [][]query.Result

// benchHub serves the same eight results for every query, single or
// batched, so the query-wire benchmarks time the wire alone, engine
// excluded.
func benchHub(b *testing.B) (*httptest.Server, *Client) {
	answer := make([]query.Result, 8)
	for i := range answer {
		answer[i] = query.Result{ID: fmt.Sprintf("series%d-v%02d@1", i%3, i), Level: 0.97 - float64(i)/50,
			Profile: resource.Profile{FLOPs: int64(1_000_000 + i*4096), MemoryBytes: int64(2<<20 + i*1024), LatencyMS: 0.42 + float64(i)/100}}
	}
	return newBatchHub(b,
		WithQuerier(func(context.Context, string) (any, error) { return answer, nil }),
		WithBatchQuerier(func(_ context.Context, qs []string) ([]any, []*QueryError) {
			out := make([]any, len(qs))
			for i := range out {
				out[i] = answer
			}
			return out, make([]*QueryError, len(qs))
		}))
}

// BenchmarkHubQueryBatch is one 64-query POST /v1/query on loopback.
// frame is what Client.QueryBatch sends and reads; json is the same
// batch as {"queries":[…]} with the JSON answer decoded into typed
// results in one pass.
func BenchmarkHubQueryBatch(b *testing.B) {
	ts, client := benchHub(b)
	qs := make([]string, 64)
	for i := range qs {
		qs[i] = fmt.Sprintf(`SELECT CORR "series%d-v%02d@1" WITHIN 50%% ON memory <= 80%% PICK most_similar`, i%3, i)
	}
	ctx := context.Background()
	b.Run("frame", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rss, _, err := client.QueryBatch(ctx, qs)
			if err != nil {
				b.Fatal(err)
			}
			benchAnswers = rss
		}
	})
	body, err := json.Marshal(batchRequest{Queries: qs})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			resp, err := ts.Client().Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			var wire struct {
				Results [][]query.Result `json:"results"`
				Errors  []*QueryError    `json:"errors"`
			}
			err = json.NewDecoder(resp.Body).Decode(&wire)
			resp.Body.Close()
			if err != nil {
				b.Fatal(err)
			}
			benchAnswers = wire.Results
		}
	})
}

// BenchmarkHubQuery is one GET /v1/query on loopback, frame and JSON as
// in BenchmarkHubQueryBatch.
func BenchmarkHubQuery(b *testing.B) {
	ts, client := benchHub(b)
	q := `SELECT CORR "series0-v00@1" WITHIN 50% ON memory <= 80% PICK most_similar`
	ctx := context.Background()
	b.Run("frame", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rs, err := client.Query(ctx, q)
			if err != nil {
				b.Fatal(err)
			}
			benchAnswers = [][]query.Result{rs}
		}
	})
	target := ts.URL + "/v1/query?q=" + url.QueryEscape(q)
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			resp, err := ts.Client().Get(target)
			if err != nil {
				b.Fatal(err)
			}
			var wire struct {
				Results []query.Result `json:"results"`
			}
			err = json.NewDecoder(resp.Body).Decode(&wire)
			resp.Body.Close()
			if err != nil {
				b.Fatal(err)
			}
			benchAnswers = [][]query.Result{wire.Results}
		}
	})
}
