package cluster_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"testing"

	"sommelier"
	"sommelier/internal/cas"
	"sommelier/internal/cluster"
	"sommelier/internal/faults"
	"sommelier/internal/graph"
	"sommelier/internal/hub"
	"sommelier/internal/query"
	"sommelier/internal/repo"
	"sommelier/internal/zoo"
)

// batchWorkload mixes the shapes the coordinator must keep index-aligned:
// valid queries, a reference no shard holds, and a parse error.
func batchWorkload(refID string) []string {
	return []string{
		fmt.Sprintf("SELECT CORR %q WITHIN 50%% PICK most_similar", refID),
		fmt.Sprintf("SELECT CORR %q WITHIN 85%% PICK smallest", refID),
		`SELECT CORR "nobody@9" WITHIN 50%`,
		"SELECT CORR",
		fmt.Sprintf("SELECT CORR %q WITHIN 50%% PICK most_similar", refID),
	}
}

// TestCoordinatorQueryBatchMatchesSerial pins the scatter-gather batch
// contract on a healthy cluster: every slot of QueryBatch — response and
// error alike — matches a serial co.Query of the same string.
func TestCoordinatorQueryBatchMatchesSerial(t *testing.T) {
	_, co, _, _, refID := chaosCluster(t)
	qs := batchWorkload(refID)

	serial := make([][]byte, len(qs))
	serialErrs := make([]error, len(qs))
	for i, q := range qs {
		resp, err := co.Query(context.Background(), q)
		serialErrs[i] = err
		if err == nil {
			serial[i] = mustJSON(t, resp)
		}
	}
	if serialErrs[3] == nil {
		t.Fatal("parse-error slot did not error serially")
	}

	resps, errs := co.QueryBatch(context.Background(), qs)
	if len(resps) != len(qs) || len(errs) != len(qs) {
		t.Fatalf("misaligned batch output: %d/%d", len(resps), len(errs))
	}
	for i := range qs {
		if (errs[i] == nil) != (serialErrs[i] == nil) {
			t.Fatalf("slot %d: batch err %v, serial err %v", i, errs[i], serialErrs[i])
		}
		if errs[i] != nil {
			if errs[i].Error() != serialErrs[i].Error() {
				t.Fatalf("slot %d: batch err %q, serial err %q", i, errs[i], serialErrs[i])
			}
			continue
		}
		if got := mustJSON(t, resps[i]); !bytes.Equal(got, serial[i]) {
			t.Fatalf("slot %d: batch response diverges from serial:\n got %s\nwant %s", i, got, serial[i])
		}
	}
	// The unknown-reference slot is a clean empty answer, not an error.
	if errs[2] != nil || len(resps[2].Results) != 0 {
		t.Fatalf("unknown-reference slot: err %v, %d results; want clean empty", errs[2], len(resps[2].Results))
	}
}

// TestCoordinatorQueryBatchFailoverInvisible pins the degradation
// ladder under batching: with one replica of a shard dead, the batch
// fails over and returns results byte-identical to the healthy run.
func TestCoordinatorQueryBatchFailoverInvisible(t *testing.T) {
	_, co, _, _, refID := chaosCluster(t)
	qs := batchWorkload(refID)
	healthy, herrs := co.QueryBatch(context.Background(), qs)

	_, co2, sched, _, refID2 := chaosCluster(t)
	if refID2 != refID {
		t.Fatalf("seeding is not deterministic: %s vs %s", refID2, refID)
	}
	sched.Set(cluster.Target(1, 0), faults.Kill(0, 0))
	faulted, ferrs := co2.QueryBatch(context.Background(), qs)

	for i := range qs {
		if (herrs[i] == nil) != (ferrs[i] == nil) {
			t.Fatalf("slot %d: healthy err %v, faulted err %v", i, herrs[i], ferrs[i])
		}
		if herrs[i] != nil {
			continue
		}
		if faulted[i].Class() != cluster.OutcomeFull {
			t.Fatalf("slot %d: faulted outcome %s, want full (failover should be invisible)",
				i, faulted[i].Class())
		}
		got, want := mustJSON(t, faulted[i].Results), mustJSON(t, healthy[i].Results)
		if !bytes.Equal(got, want) {
			t.Fatalf("slot %d: failover changed the answer:\n got %s\nwant %s", i, got, want)
		}
		if faulted[i].Failovers == 0 {
			t.Fatalf("slot %d: no failovers recorded despite a dead first replica", i)
		}
	}
}

// newBatchHubReplica is an engine-backed hub with the batched query
// endpoint wired the way sommhub wires it, fronted by an HTTPReplica.
func newBatchHubReplica(t *testing.T) (*cluster.HTTPReplica, *sommelier.Engine) {
	t.Helper()
	store := repo.NewInMemory()
	eng, err := sommelier.NewEngine(store,
		sommelier.WithSeed(11),
		sommelier.WithValidationSize(32))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := hub.NewServer(store,
		hub.WithIndexer(eng),
		hub.WithQuerier(func(ctx context.Context, q string) (any, error) {
			return eng.QueryContext(ctx, q)
		}),
		hub.WithBatchQuerier(func(ctx context.Context, qs []string) ([]any, []*hub.QueryError) {
			rss, errs := eng.QueryBatchContext(ctx, qs)
			results := make([]any, len(qs))
			qerrs := make([]*hub.QueryError, len(qs))
			for i := range qs {
				if err := errs[i]; err != nil {
					qerrs[i] = &hub.QueryError{Message: err.Error()}
					if errors.Is(err, sommelier.ErrUnknownReference) {
						qerrs[i].Code = hub.CodeUnknownReference
					}
					continue
				}
				results[i] = rss[i]
			}
			return results, qerrs
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
	return cluster.NewHTTPReplica(client), eng
}

func seedHTTPReplica(t *testing.T, r *cluster.HTTPReplica) string {
	t.Helper()
	publish := func(m *graph.Model) string {
		enc, err := cas.Encode(m, "", nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		id, err := r.PublishEncoded(context.Background(), enc)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	base, err := zoo.DenseResidualNet(zoo.Config{Name: "httpbase", Seed: 3, Width: 8, Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	refID := publish(base)
	for i := 0; i < 3; i++ {
		publish(zoo.Perturb(base, fmt.Sprintf("httpv%d", i), 0.01*float64(i+1), uint64(20+i)))
	}
	return refID
}

// TestHTTPReplicaQueryBatch drives the wire protocol end to end: a
// batch over a live hub matches per-query GETs, the unknown-reference
// code comes back in its slot as query.ErrUnknownReference (where the
// GET answers an empty contribution), and a genuine per-query error
// stays in its slot.
func TestHTTPReplicaQueryBatch(t *testing.T) {
	r, _ := newBatchHubReplica(t)
	refID := seedHTTPReplica(t, r)
	qs := batchWorkload(refID)

	results, errs, err := r.QueryBatch(context.Background(), qs)
	if err != nil {
		t.Fatalf("batch transport error: %v", err)
	}
	for i, q := range qs {
		if i == 2 {
			continue // the unknown reference, checked below
		}
		serial, serr := r.Query(context.Background(), q)
		if (errs[i] == nil) != (serr == nil) {
			t.Fatalf("slot %d: batch err %v, serial err %v", i, errs[i], serr)
		}
		if serr != nil {
			continue
		}
		if got, want := mustJSON(t, results[i]), mustJSON(t, serial); !bytes.Equal(got, want) {
			t.Fatalf("slot %d: batch diverges from GET:\n got %s\nwant %s", i, got, want)
		}
	}
	if !errors.Is(errs[2], query.ErrUnknownReference) || len(results[2]) != 0 {
		t.Fatalf("unknown-reference slot: err %v, %d results; want query.ErrUnknownReference", errs[2], len(results[2]))
	}
	if res, err := r.Query(context.Background(), qs[2]); err != nil || len(res) != 0 {
		t.Fatalf("unknown reference through Query: err %v, %d results; want an empty contribution", err, len(res))
	}
	// A one-query attempt takes the GET and maps the same way.
	if _, one, err := r.QueryBatch(context.Background(), qs[2:3]); err != nil || !errors.Is(one[0], query.ErrUnknownReference) {
		t.Fatalf("one-query attempt: err %v, slot %v; want query.ErrUnknownReference", err, one[0])
	}
	// A parse error is a refusal on both paths (the coordinator never
	// sends one — it validates before scattering — but a direct caller
	// deserves the real error).
	if errs[3] == nil {
		t.Fatal("parse-error slot did not carry a per-query error")
	}
}
