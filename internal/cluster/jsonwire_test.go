package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strings"
	"testing"

	"sommelier"
	"sommelier/internal/graph"
	"sommelier/internal/hub"
	"sommelier/internal/query"
	"sommelier/internal/repo"
	"sommelier/internal/zoo"
)

// wireShard starts one engine shard hub over a catalog that puts every
// field of a result on the wire: a base of each zoo family with two
// perturbed variants, and a transfer variant of the dense base that
// shares its trunk (synthesized results, with donor and segment). A
// sample size of one leaves some levels derived. It returns the hub's
// URL and the queries the wire tests send: three shapes per family, a
// near-exact query that only synthesized results pass, and two
// refusals (an unknown reference and a parse error).
func wireShard(t *testing.T) (string, []string) {
	t.Helper()
	store := repo.NewInMemory()
	eng, err := sommelier.NewEngine(store, sommelier.WithSeed(3), sommelier.WithValidationSize(150),
		sommelier.WithSegments(true), sommelier.WithSegmentMinLen(3), sommelier.WithSampleSize(1))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := hub.NewServer(store,
		hub.WithIndexer(eng),
		hub.WithQuerier(func(ctx context.Context, q string) (any, error) {
			return eng.QueryContext(ctx, q)
		}))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	client, err := hub.NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	publish := func(m *graph.Model) string {
		t.Helper()
		id, _, err := client.PublishModel(m)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	var qs []string
	for i, fam := range zoo.Families() {
		base, err := zoo.Build(fam, zoo.Config{Name: "wire-" + fam, Seed: uint64(7 + i), Width: 24, Depth: 1})
		if err != nil {
			t.Fatal(err)
		}
		ref := publish(base)
		for v := 0; v < 2; v++ {
			publish(zoo.Perturb(base, fmt.Sprintf("wire-%s-v%d", fam, v), 0.01*float64(v+1), uint64(40+10*i+v)))
		}
		if fam == "dense-residual" {
			donor, err := zoo.Transfer(base, "wire-donor", 8, 99, 0, 9)
			if err != nil {
				t.Fatal(err)
			}
			publish(donor)
			qs = append(qs, fmt.Sprintf(`SELECT CORR %q WITHIN 1%% PICK most_similar`, ref))
		}
		qs = append(qs,
			fmt.Sprintf(`SELECT CORR %q WITHIN 50%% PICK most_similar`, ref),
			fmt.Sprintf(`SELECT CORR %q WITHIN 50%% ON memory <= 80%% EXEC batch=8 PICK smallest`, ref),
			fmt.Sprintf(`SELECT CORR %q WITHIN 50%% ON flops >= 10%% AND flops <= 150%% PICK cheapest`, ref))
	}
	return ts.URL, append(qs, `SELECT CORR "nobody@9" WITHIN 50%`, "SELECT CORR")
}

// queryJSONBodies is what a client that does not ask for the results
// frame gets from wireShard's hub: every query as a GET, then every
// query but the unknown reference as one POST batch (a batch's
// unknown-reference slot carries its code on the wire, which the
// single-query JSON form has no field for). Each answer is recorded
// with its status and Content-Type.
func queryJSONBodies(t *testing.T) []byte {
	base, qs := wireShard(t)
	var out bytes.Buffer
	record := func(label string, resp *http.Response, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "%s\n%d %s\n%s\n", label, resp.StatusCode, resp.Header.Get("Content-Type"), body)
	}
	var batch []string
	for _, q := range qs {
		resp, err := http.Get(base + "/v1/query?q=" + url.QueryEscape(q))
		record("GET "+q, resp, err)
		if !strings.Contains(q, "nobody@9") {
			batch = append(batch, q)
		}
	}
	body := mustJSON(t, map[string][]string{"queries": batch})
	resp, err := http.Post(base+"/v1/query", "application/json", bytes.NewReader(body))
	record("POST", resp, err)
	return out.Bytes()
}

// sameResults reports whether two answers are equal field for field,
// floats compared by their bits.
func sameResults(a, b []query.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.ID != y.ID || math.Float64bits(x.Level) != math.Float64bits(y.Level) ||
			x.Synthesized != y.Synthesized || x.Derived != y.Derived ||
			x.DonorID != y.DonorID || x.Segment != y.Segment ||
			x.Profile.FLOPs != y.Profile.FLOPs || x.Profile.MemoryBytes != y.Profile.MemoryBytes ||
			math.Float64bits(x.Profile.LatencyMS) != math.Float64bits(y.Profile.LatencyMS) {
			return false
		}
	}
	return true
}

// TestFrameMatchesJSON: the results frame hub.Client asks for and the
// JSON a plain client gets carry the same answers — every query of
// wireShard, single and batched, compared field for field with floats
// by bits, refusals by message and code.
func TestFrameMatchesJSON(t *testing.T) {
	base, qs := wireShard(t)
	client, err := hub.NewClient(base, http.DefaultClient, hub.WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var synthesized, derived bool
	for _, q := range qs {
		framed, ferr := client.Query(ctx, q)
		resp, err := http.Get(base + "/v1/query?q=" + url.QueryEscape(q))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if ferr != nil {
			var qe *hub.QueryError
			if !errors.As(ferr, &qe) || resp.StatusCode != http.StatusBadRequest || string(body) != qe.Message+"\n" {
				t.Fatalf("%s: frame refusal %v; JSON form answered %d %q", q, ferr, resp.StatusCode, body)
			}
			continue
		}
		var plain struct {
			Results []query.Result `json:"results"`
		}
		if err := json.Unmarshal(body, &plain); err != nil {
			t.Fatalf("%s: %d %q: %v", q, resp.StatusCode, body, err)
		}
		if !sameResults(framed, plain.Results) {
			t.Fatalf("%s:\nframe %+v\n json %+v", q, framed, plain.Results)
		}
		for _, r := range framed {
			synthesized = synthesized || (r.Synthesized && r.DonorID != "" && r.Segment != "")
			derived = derived || r.Derived
		}
	}
	if !synthesized || !derived {
		t.Fatalf("the queries reached no synthesized (%v) or no derived (%v) result", synthesized, derived)
	}

	framed, fqerrs, err := client.QueryBatch(ctx, qs)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/query", "application/json",
		bytes.NewReader(mustJSON(t, map[string][]string{"queries": qs})))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var plain struct {
		Results [][]query.Result  `json:"results"`
		Errors  []*hub.QueryError `json:"errors"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&plain); err != nil {
		t.Fatal(err)
	}
	if len(plain.Results) != len(qs) || len(plain.Errors) != len(qs) {
		t.Fatalf("JSON batch: %d results, %d errors for %d queries", len(plain.Results), len(plain.Errors), len(qs))
	}
	refused := 0
	for i, q := range qs {
		fe, je := fqerrs[i], plain.Errors[i]
		if (fe == nil) != (je == nil) || fe != nil && *fe != *je {
			t.Fatalf("batch slot %d (%s): frame error %+v, JSON error %+v", i, q, fe, je)
		}
		if fe != nil {
			refused++
			continue
		}
		if !sameResults(framed[i], plain.Results[i]) {
			t.Fatalf("batch slot %d (%s):\nframe %+v\n json %+v", i, q, framed[i], plain.Results[i])
		}
	}
	if refused != 2 {
		t.Fatalf("%d refused batch slots, want 2 (unknown reference, parse error)", refused)
	}
}

// TestQueryJSONGolden: a client that does not ask for the results frame
// — curl, the README's examples, a coordinator-mode hub's callers — gets
// the JSON answers it always got, byte for byte. The golden was written
// by the code before the frame existed.
func TestQueryJSONGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/query_json.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := queryJSONBodies(t); !bytes.Equal(got, want) {
		t.Fatalf("JSON answers differ from testdata/query_json.golden:\n got %s", got)
	}
}
