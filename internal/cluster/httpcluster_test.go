package cluster_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"sommelier"
	"sommelier/internal/cas"
	"sommelier/internal/cluster"
	"sommelier/internal/graph"
	"sommelier/internal/hub"
	"sommelier/internal/query"
	"sommelier/internal/repo"
	"sommelier/internal/zoo"
)

// hubReplica is one remote shard replica: a live hub server (engine
// indexer + querier, shard-aware healthz) fronted by a resilient hub
// client.
type hubReplica struct {
	ts *httptest.Server
	r  *cluster.HTTPReplica
}

func newHubReplica(t *testing.T, shard, shards int, opts ...sommelier.Option) *hubReplica {
	t.Helper()
	store := repo.NewInMemory()
	eng, err := sommelier.NewEngine(store, append([]sommelier.Option{
		sommelier.WithSeed(11),
		sommelier.WithValidationSize(32)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := hub.NewServer(store,
		hub.WithIndexer(eng),
		hub.WithQuerier(func(ctx context.Context, q string) (any, error) {
			return eng.QueryContext(ctx, q)
		}),
		hub.WithShardInfo(shard, shards))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	client, err := hub.NewClient(ts.URL, ts.Client(),
		hub.WithTimeout(5*time.Second),
		hub.WithRetries(1),
		hub.WithBackoff(time.Millisecond, 2*time.Millisecond),
		hub.WithBreaker(3, time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	return &hubReplica{ts: ts, r: cluster.NewHTTPReplica(client)}
}

// TestHTTPClusterFailover drives the whole remote stack — cluster
// writes, scatter-gather reads, replica failover and the stale rung —
// over real hub servers and clients.
func TestHTTPClusterFailover(t *testing.T) {
	const (
		shards   = 2
		replicas = 2
	)
	hubs := make([][]*hubReplica, shards)
	topo := make([][]cluster.Replica, shards)
	for s := 0; s < shards; s++ {
		for r := 0; r < replicas; r++ {
			hr := newHubReplica(t, s, shards)
			hubs[s] = append(hubs[s], hr)
			topo[s] = append(topo[s], hr.r)
		}
	}
	cl, err := cluster.NewCluster(topo)
	if err != nil {
		t.Fatal(err)
	}
	co, err := cluster.NewCoordinator(cluster.Backends(topo), cluster.WithReplicaTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	base, err := zoo.DenseResidualNet(zoo.Config{Name: "http-base", Seed: 11, Width: 8, Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	refID, err := cl.Broadcast(ctx, base)
	if err != nil {
		t.Fatalf("broadcast over HTTP: %v", err)
	}
	for i := 0; i < 4; i++ {
		v := zoo.Perturb(base, fmt.Sprintf("http-v%d", i), 0.01*float64(i+1), uint64(i+20))
		if _, err := cl.Publish(ctx, v); err != nil {
			t.Fatalf("publish variant %d over HTTP: %v", i, err)
		}
	}

	q := fmt.Sprintf("SELECT CORR %q WITHIN 50%% PICK most_similar", refID)
	resp, err := co.Query(ctx, q)
	if err != nil {
		t.Fatalf("healthy query: %v", err)
	}
	if resp.Class() != cluster.OutcomeFull || len(resp.Results) < 2 {
		t.Fatalf("healthy response: class %s, %d results", resp.Class(), len(resp.Results))
	}
	baseline := mustJSON(t, resp.Results)

	// Replica loss: close shard 0 / replica 0's server. The coordinator
	// must fail over to replica 1 and the answer must not change.
	hubs[0][0].ts.Close()
	resp, err = co.Query(ctx, q)
	if err != nil {
		t.Fatalf("query after replica loss: %v", err)
	}
	if resp.Class() != cluster.OutcomeFull {
		t.Fatalf("replica loss degraded to %s (missing %v, stale %v)", resp.Class(), resp.Missing, resp.Stale)
	}
	if resp.Failovers == 0 {
		t.Error("no failover recorded despite a dead server")
	}
	if got := mustJSON(t, resp.Results); !bytes.Equal(got, baseline) {
		t.Errorf("failover changed the top-K:\n got %s\nwant %s", got, baseline)
	}

	// Shard loss: close the remaining replica. The shard's last answer
	// keeps serving, tagged stale.
	hubs[0][1].ts.Close()
	resp, err = co.Query(ctx, q)
	if err != nil {
		t.Fatalf("query after shard loss: %v", err)
	}
	if resp.Class() != cluster.OutcomeDegraded || len(resp.Stale) != 1 || resp.Stale[0] != 0 {
		t.Fatalf("shard loss: class %s, stale %v, missing %v; want stale [0]", resp.Class(), resp.Stale, resp.Missing)
	}
	if got := mustJSON(t, resp.Results); !bytes.Equal(got, baseline) {
		t.Errorf("stale-served top-K differs:\n got %s\nwant %s", got, baseline)
	}

	// A query never seen before cannot be served stale: the shard goes
	// missing and the result says so.
	resp, err = co.Query(ctx, fmt.Sprintf("SELECT CORR %q WITHIN 60%% PICK smallest", refID))
	if err != nil {
		t.Fatalf("novel query after shard loss: %v", err)
	}
	if resp.Class() != cluster.OutcomeDegraded || len(resp.Missing) != 1 || resp.Missing[0] != 0 {
		t.Fatalf("novel query: class %s, missing %v, stale %v; want missing [0]", resp.Class(), resp.Missing, resp.Stale)
	}
}

// TestHTTPSynthesizedResultCrossesWire: a synthesized (§4.2
// segment-replacement) result is only usable with its donor and segment,
// so both must survive every way a shard hub's answer reaches a
// coordinator: the GET form, the POST batch form, and a Coordinator
// query over the HTTP replica.
func TestHTTPSynthesizedResultCrossesWire(t *testing.T) {
	hr := newHubReplica(t, 0, 1, sommelier.WithSeed(3), sommelier.WithValidationSize(150),
		sommelier.WithSegments(true), sommelier.WithSegmentMinLen(3))
	topo := [][]cluster.Replica{{hr.r}}
	cl, err := cluster.NewCluster(topo)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	base, err := zoo.DenseResidualNet(zoo.Config{Name: "segbase", Seed: 7, Width: 24, Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A transfer variant sharing the frozen trunk.
	variant, err := zoo.Transfer(base, "segvariant", 8, 99, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	refID, err := cl.Publish(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	donorID, err := cl.Publish(ctx, variant)
	if err != nil {
		t.Fatal(err)
	}

	q := fmt.Sprintf("SELECT CORR %q WITHIN 1%% PICK most_similar", refID)
	check := func(via string, rs []cluster.Result) {
		t.Helper()
		for _, r := range rs {
			if r.Synthesized {
				if r.DonorID != donorID || r.Segment == "" {
					t.Fatalf("%s: synthesized result lost its donor or segment: %+v", via, r)
				}
				return
			}
		}
		t.Fatalf("%s: no synthesized result in %+v", via, rs)
	}
	got, err := hr.r.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	check("GET /v1/query", got)
	batch, qerrs, err := hr.r.QueryBatch(ctx, []string{q, q})
	if err != nil || qerrs[0] != nil || qerrs[1] != nil {
		t.Fatalf("batch: %v, per-query %v", err, qerrs)
	}
	check("POST /v1/query", batch[1])
	co, err := cluster.NewCoordinator(cluster.Backends(topo))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := co.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	check("Coordinator.Query", resp.Results)
}

// TestHTTPReplicaLoadPullsAndMapsNotFound: a remote replica's Load is
// the hub client's pack pull — the model re-encodes to the bytes that
// were published — and a model the shard does not hold is
// repo.ErrNotFound, the error in-process replicas return, not a bare
// status.
func TestHTTPReplicaLoadPullsAndMapsNotFound(t *testing.T) {
	ctx := context.Background()
	shard := newHubReplica(t, 0, 1)
	m, err := zoo.DenseResidualNet(zoo.Config{Name: "pulled", Seed: 5, Width: 32, Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := cas.Encode(m, "", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	id, err := shard.r.PublishEncoded(ctx, enc)
	if err != nil {
		t.Fatal(err)
	}
	// A second client on the same hub: the publisher's has the model in
	// its write-through cache and would not go to the wire.
	client, err := hub.NewClient(shard.ts.URL, shard.ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	puller := cluster.NewHTTPReplica(client)
	got, err := puller.Load(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	var want, have bytes.Buffer
	if err := graph.Encode(&want, m); err != nil {
		t.Fatal(err)
	}
	if err := graph.Encode(&have, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), have.Bytes()) {
		t.Fatal("the pulled model re-encodes differently")
	}
	if _, err := puller.Load(ctx, "ghost@1"); !errors.Is(err, repo.ErrNotFound) {
		t.Fatalf("load of an unknown id: %v, want repo.ErrNotFound", err)
	}
}

// TestHTTPReplicaQueryStatusMapping: a shard whose hub refuses the query
// as an unknown reference (the one code a hub sets on a refusal) has
// nothing to contribute, and the replica answers empty. Any other answer
// says nothing about the shard's catalog — another refusal, a bare 400
// without a frame, a proxy's 401/403, a wrong path, a throttled shard —
// and must reach the coordinator as an error so the ladder fails over
// instead of reporting a full response that silently lacks a shard.
func TestHTTPReplicaQueryStatusMapping(t *testing.T) {
	cases := []struct {
		name   string
		status int
		// refusal, when set, is what a real hub's querier refuses every
		// query with; otherwise a stub answers status in plain text.
		refusal error
		empty   bool
	}{
		{status: http.StatusBadRequest},
		{name: "400-unknown-reference", status: http.StatusBadRequest, empty: true,
			refusal: fmt.Errorf("%w: %q is not indexed", query.ErrUnknownReference, "ref@1")},
		{name: "400-refused", status: http.StatusBadRequest,
			refusal: fmt.Errorf("%w: reference model %q", sommelier.ErrNoProfile, "ref@1")},
		{status: http.StatusUnauthorized},
		{status: http.StatusForbidden},
		{status: http.StatusNotFound},
		{status: http.StatusMethodNotAllowed},
		{status: http.StatusRequestEntityTooLarge},
		{status: http.StatusTooManyRequests},
	}
	for _, tc := range cases {
		tc := tc
		name := tc.name
		if name == "" {
			name = fmt.Sprint(tc.status)
		}
		t.Run(name, func(t *testing.T) {
			var h http.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				http.Error(w, "stub hub says no", tc.status)
			})
			if tc.refusal != nil {
				srv, err := hub.NewServer(repo.NewInMemory(), hub.WithQuerier(func(context.Context, string) (any, error) {
					return nil, tc.refusal
				}))
				if err != nil {
					t.Fatal(err)
				}
				h = srv
			}
			ts := httptest.NewServer(h)
			defer ts.Close()
			client, err := hub.NewClient(ts.URL, ts.Client(), hub.WithRetries(0))
			if err != nil {
				t.Fatal(err)
			}
			r := cluster.NewHTTPReplica(client)
			res, err := r.Query(context.Background(), `SELECT CORR "ref@1" WITHIN 50%`)
			if tc.empty {
				if err != nil || len(res) != 0 {
					t.Fatalf("status %d: got %d results, err %v; want a clean empty contribution", tc.status, len(res), err)
				}
				return
			}
			var se *hub.StatusError
			if !errors.As(err, &se) || se.Code != tc.status {
				t.Fatalf("status %d: err = %v; want a *hub.StatusError carrying the code", tc.status, err)
			}

			// Through the coordinator the shard is missing, not silently empty.
			co, err := cluster.NewCoordinator([][]cluster.QueryBackend{{r}})
			if err != nil {
				t.Fatal(err)
			}
			resp, err := co.Query(context.Background(), `SELECT CORR "ref@1" WITHIN 50%`)
			if err != nil {
				t.Fatal(err)
			}
			if resp.Class() == cluster.OutcomeFull || len(resp.Missing) != 1 {
				t.Fatalf("status %d: coordinator response class %s, missing %v; want the shard reported missing",
					tc.status, resp.Class(), resp.Missing)
			}
		})
	}
}

// TestRefusedQueryIsMissingSingleOrBatched: a shard that refuses a query
// for any reason but an unknown reference has not answered it, whichever
// entry point asked. Query and QueryBatch agree: the shard is missing
// and the response degraded — never a full answer that silently lacks
// the shard.
func TestRefusedQueryIsMissingSingleOrBatched(t *testing.T) {
	queriers := []hub.Querier{
		func(context.Context, string) (any, error) { return []query.Result{{ID: "m@1", Level: 0.9}}, nil },
		func(context.Context, string) (any, error) {
			return nil, fmt.Errorf("%w: reference model %q", sommelier.ErrNoProfile, "ref@1")
		},
	}
	var topo [][]cluster.QueryBackend
	for _, querier := range queriers {
		srv, err := hub.NewServer(repo.NewInMemory(), hub.WithQuerier(querier))
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		client, err := hub.NewClient(ts.URL, ts.Client())
		if err != nil {
			t.Fatal(err)
		}
		topo = append(topo, []cluster.QueryBackend{cluster.NewHTTPReplica(client)})
	}
	co, err := cluster.NewCoordinator(topo)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := `SELECT CORR "ref@1" WITHIN 50%`
	single, err := co.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	batch, errs := co.QueryBatch(ctx, []string{q, q})
	for i, resp := range []*cluster.Response{single, batch[0], batch[1]} {
		if i > 0 && errs[i-1] != nil {
			t.Fatal(errs[i-1])
		}
		if resp.Class() != cluster.OutcomeDegraded || fmt.Sprint(resp.Missing) != "[1]" || len(resp.Results) != 1 {
			t.Fatalf("response %d (0 single, 1-2 batched): class %s, missing %v, %d results; want degraded, missing [1], 1 result",
				i, resp.Class(), resp.Missing, len(resp.Results))
		}
	}
}
