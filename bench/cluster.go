package bench

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"sommelier"
	"sommelier/internal/cluster"
	"sommelier/internal/graph"
	"sommelier/internal/hub"
	"sommelier/internal/query"
	"sommelier/internal/repo"
)

// clusterSizing shapes hub_cluster: nSeries fine-tuned families of
// perSeries models over shards × 1 replica on loopback. ISSUE.md's
// 6 × 32 is halved with the other populations (see engineSizings).
type clusterSizing struct {
	shards, nSeries, perSeries int
	// query, batch and load are the turns each serving phase gets per
	// round of the serving stage.
	query, batch, load int
}

var hubClusterSizing = clusterSizing{shards: 2, nSeries: 6, perSeries: 16, query: 3, batch: 1, load: 2}

// publishBlock is how many consecutive publishes make one chunk of the
// publish sweep: one sample of the cluster's indexing rate.
const publishBlock = 8

func (sz clusterSizing) shape(scale float64) (nSeries, perSeries int) {
	if scale >= 1 {
		return sz.nSeries, sz.perSeries
	}
	return max(int(float64(sz.nSeries)*scale+0.5), sz.shards), max(int(float64(sz.perSeries)*scale+0.5), 4)
}

// wireMeter counts the requests a hub client makes and the body bytes
// it sends and receives.
type wireMeter struct {
	inner          http.RoundTripper
	sent, received atomic.Int64
	// requests counts all round trips, chunkPuts the chunk uploads.
	requests, chunkPuts atomic.Int64
}

func (w *wireMeter) RoundTrip(req *http.Request) (*http.Response, error) {
	w.requests.Add(1)
	if req.Method == http.MethodPut && strings.HasPrefix(req.URL.Path, "/v1/chunks/") {
		w.chunkPuts.Add(1)
	}
	if req.ContentLength > 0 {
		w.sent.Add(req.ContentLength)
	}
	resp, err := w.inner.RoundTrip(req)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &w.received}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// shardNode is one shard: an engine over an in-memory repository
// behind a hub.Server on loopback, reached through a hub.Client.
type shardNode struct {
	store  *repo.Repository
	eng    *sommelier.Engine
	ts     *httptest.Server
	client *hub.Client
	meter  *wireMeter
	rep    *cluster.HTTPReplica
}

func newShardNode(shard, shards int, meter *wireMeter) (*shardNode, error) {
	n := &shardNode{store: repo.NewInMemory(), meter: meter}
	var err error
	if n.eng, err = newEngine(n.store); err != nil {
		return nil, err
	}
	eng := n.eng
	srv, err := hub.NewServer(n.store,
		hub.WithIndexer(eng),
		hub.WithQuerier(func(ctx context.Context, q string) (any, error) { return eng.QueryContext(ctx, q) }),
		hub.WithBatchQuerier(func(ctx context.Context, qs []string) ([]any, []*hub.QueryError) {
			results, errs := eng.QueryBatchContext(ctx, qs)
			out := make([]any, len(qs))
			qerrs := make([]*hub.QueryError, len(qs))
			for i := range qs {
				if err := errs[i]; err != nil {
					qerrs[i] = &hub.QueryError{Message: err.Error()}
					if errors.Is(err, sommelier.ErrUnknownReference) {
						qerrs[i].Code = hub.CodeUnknownReference
					}
					continue
				}
				out[i] = results[i]
			}
			return out, qerrs
		}),
		hub.WithShardInfo(shard, shards))
	if err != nil {
		return nil, err
	}
	n.ts = httptest.NewServer(srv)
	hc := n.ts.Client()
	meter.inner = hc.Transport
	// A one-model cache defeats client-side caching of pulls: the load
	// sweep never asks for the same model twice in a row.
	n.client, err = hub.NewClient(n.ts.URL, &http.Client{Transport: meter}, hub.WithCacheCap(1))
	if err != nil {
		n.ts.Close()
		return nil, err
	}
	n.rep = cluster.NewHTTPReplica(n.client)
	return n, nil
}

// clusterFixture is what set-up produces for hub_cluster.
type clusterFixture struct {
	pop        *Population
	mix        *QueryMix
	nodes      []*shardNode
	cl         *cluster.Cluster
	co         *cluster.Coordinator
	defaultRef string
}

func (f *clusterFixture) close() {
	if f == nil {
		return
	}
	for _, n := range f.nodes {
		n.ts.Close()
	}
}

func (f *clusterFixture) received() int64 {
	var n int64
	for _, node := range f.nodes {
		n += node.meter.received.Load()
	}
	return n
}

func setupCluster(cfg Config, sz clusterSizing) (*clusterFixture, error) {
	nSeries, perSeries := sz.shape(cfg.Scale)
	pop, err := FineTunedSeries(CorpusSeed, nSeries, perSeries)
	if err != nil {
		return nil, err
	}
	f := &clusterFixture{pop: pop, defaultRef: pop.IDs[0], mix: NewQueryMix(cfg.Seed, pop.IDs, taskName, mixLen)}
	topo := make([][]cluster.Replica, sz.shards)
	for s := range topo {
		n, err := newShardNode(s, sz.shards, &wireMeter{})
		if err != nil {
			f.close()
			return nil, err
		}
		f.nodes = append(f.nodes, n)
		topo[s] = []cluster.Replica{n.rep}
	}
	if f.cl, err = cluster.NewCluster(topo); err != nil {
		f.close()
		return nil, err
	}
	if f.co, err = cluster.NewCoordinator(cluster.Backends(topo)); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// runClusterWorkload runs hub_cluster: publish → index → query → pull
// through the cluster front door, every hop over loopback HTTP.
func runClusterWorkload(ctx context.Context, cfg Config, h *Harness) (*Report, error) {
	sz := hubClusterSizing
	rep := newReport(cfg)
	runStart := time.Now()

	fx, err := runSetup(h, rep, func() (*clusterFixture, string, error) {
		f, err := setupCluster(cfg, sz)
		if err != nil {
			return nil, "", err
		}
		return f, f.pop.Digest + f.mix.Digest, nil
	}, (*clusterFixture).close)
	defer fx.close()
	if err != nil {
		return nil, err
	}
	pop, mix, cl, co := fx.pop, fx.mix, fx.cl, fx.co
	total := len(pop.Models)
	rep.Notef("population %d fine-tuned models over %d shards, %d user bytes", total, sz.shards, pop.UserBytes(0, total))
	measureStart := time.Now()

	// Publish sweep through the cluster: ring placement, upload to the
	// owning shard, indexing there before the PUT is acknowledged.
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	pub, err := h.Run(Spec{Name: "cluster_publish", ChunkOps: publishBlock, MaxOps: total}, 0, func(i int) (time.Duration, error) {
		return h.tr.Timed("op.cluster_publish", "cluster.publish", func() error { _, err := cl.Publish(ctx, pop.Models[i]); return err })
	})
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&mem1)
	h.Count(total, 0)
	indexed := 0
	var indexBytes, stored int64
	for _, n := range fx.nodes {
		indexed += n.eng.IndexedLen()
		s, r := n.eng.IndexMemoryBytes()
		indexBytes += s + r
		ids := make([]string, 0, n.store.Len())
		for _, md := range n.store.List() {
			ids = append(ids, md.ID)
		}
		b, err := storedBytes(n.store, ids)
		if err != nil {
			return nil, err
		}
		stored += b
		if _, ok := n.eng.Profile(fx.defaultRef); ok {
			if err := n.eng.SetDefaultReference(taskName, fx.defaultRef); err != nil {
				return nil, err
			}
		}
	}
	h.Check("indexed_count", indexed == total, "%d models indexed across shards, want %d", indexed, total)
	rep.Set("index_models_per_s", pub.Rate(), "models/s")
	rep.Set("raw.index_models_per_s", pub.RawRate(), "models/s")
	rep.Set("register_p50_ms", pub.P50()*1e3, "ms")
	rep.Set("raw.register_p50_ms", pub.RawP50()*1e3, "ms")
	rep.Set("index_alloc_mb_per_model", float64(mem1.TotalAlloc-mem0.TotalAlloc)/float64(total)/1e6, "MB")
	rep.Set("index_bytes_per_model", float64(indexBytes)/float64(total), "B")
	rep.Set("stored_bytes_ratio", float64(stored)/float64(pop.UserBytes(0, total)), "ratio")
	rep.Notef("cluster_publish: %d samples", len(pub.Raw))

	// Serving stage: coordinator queries one at a time, coordinator
	// batches of 64, and pulls through the cluster take turns. Traced,
	// every single query is also replayed at the two boundaries below
	// the coordinator — each shard's HTTP replica, then each shard's
	// engine — so the layers' shares can be told apart.
	full := 0
	mixBatches := len(mix.Queries) / queryBatch
	var buf bytes.Buffer
	cached := 0
	served, err := h.Stage(servingBudget(cfg, measureStart, 4*time.Second),
		Phase{Spec{Name: "coord_query", MinOps: 2000, Turns: sz.query}, func(i int) (time.Duration, error) {
			q := mix.Queries[i%len(mix.Queries)].Text
			var resp *cluster.Response
			op := h.tr.NewOp()
			root := h.tr.Start("op.coord_query", -1, op)
			d, err := clock(func() (err error) { resp, err = co.Query(ctx, q); return err })
			h.tr.End(root)
			if err != nil {
				return 0, err
			}
			if resp.Class() == cluster.OutcomeFull {
				full++
			}
			if h.tr != nil {
				for _, n := range fx.nodes {
					sp := h.tr.Start("hub.query", root, op)
					_, err := n.rep.Query(ctx, q)
					h.tr.End(sp)
					if err != nil {
						return 0, err
					}
					esp := h.tr.Start("engine.query", sp, op)
					_, err = n.eng.QueryContext(ctx, q)
					h.tr.End(esp)
					if err != nil && !errors.Is(err, sommelier.ErrUnknownReference) {
						return 0, err
					}
				}
			}
			return d, nil
		}},
		Phase{Spec{Name: "coord_query_batch", MinOps: 32, Work: queryBatch, Turns: sz.batch}, func(i int) (time.Duration, error) {
			qs := mix.Texts(i%mixBatches*queryBatch, (i%mixBatches+1)*queryBatch)
			return h.tr.Timed("op.coord_query_batch", "cluster.query_batch", func() error {
				resps, errs := co.QueryBatch(ctx, qs)
				for j, err := range errs {
					if err != nil {
						return err
					}
					if resps[j].Class() != cluster.OutcomeFull {
						return fmt.Errorf("batched response to %q is %s, not full", qs[j], resps[j].Class())
					}
				}
				return nil
			})
		}},
		// Pulls: the bytes received must grow by at least half the
		// model's size on every pull, or a cache answered.
		Phase{Spec{Name: "cluster_load", MinOps: 64, Turns: sz.load}, func(i int) (time.Duration, error) {
			i %= total
			before := fx.received()
			var m *graph.Model
			d, err := h.tr.Timed("op.cluster_load", "cluster.load", func() (err error) { m, err = cl.Load(ctx, pop.IDs[i]); return err })
			if err != nil {
				return 0, err
			}
			if fx.received()-before < pop.EncodedBytes[i]/2 {
				cached++
			}
			if h.checks["hydrate_byte_identical"] < total {
				buf.Reset()
				if err := graph.Encode(&buf, m); err != nil {
					return 0, err
				}
				sum := sha256.Sum256(buf.Bytes())
				same := hex.EncodeToString(sum[:]) == pop.Digests[i]
				h.Count(1, btoi(!same))
				h.Check("hydrate_byte_identical", same, "%s re-encodes differently after a cluster pull", pop.IDs[i])
			}
			return d, nil
		}})
	if err != nil {
		return nil, err
	}
	single, batch, load := served[0], served[1], served[2]
	h.Count(len(single.Raw), len(single.Raw)-full)
	h.Check("coordinator_full", full == len(single.Raw), "%d of %d coordinator responses were not full", len(single.Raw)-full, len(single.Raw))
	h.Count(len(batch.Raw)*queryBatch, 0)
	h.Count(len(load.Raw), cached)
	h.Check("pulls_uncached", cached == 0, "%d of %d pulls moved too few bytes: a cache answered", cached, len(load.Raw))
	reportQueries(rep, single, batch)
	rep.Set("load_p50_ms", load.P50()*1e3, "ms")
	rep.Set("raw.load_p50_ms", load.RawP50()*1e3, "ms")
	rep.Notef("cluster_load: %d samples", len(load.Raw))
	rep.Notef("measured for %.1f s (asked %.0f), set-up %.1f s", time.Since(measureStart).Seconds(), cfg.Seconds, measureStart.Sub(runStart).Seconds())

	// The canonical set, thinned to every third query: a coordinator
	// query costs ten times an engine query.
	var canon []Query
	for i, q := range CanonicalQueries(pop.IDs, taskName) {
		if i%3 == 0 {
			canon = append(canon, q)
		}
	}
	allocB, _, err := allocPerOp(len(canon), func(i int) error {
		_, err := co.Query(ctx, canon[i].Text)
		return err
	})
	if err != nil {
		return nil, err
	}
	rep.Set("query_alloc_kb", allocB/1e3, "kB")
	nWire := min(wireModels, total)
	sent, err := wireBytes(pop.Models[:nWire])
	if err != nil {
		return nil, err
	}
	h.Count(len(canon)+nWire, 0)
	rep.Set("wire_bytes_ratio", float64(sent)/float64(pop.UserBytes(0, nWire)), "ratio")

	recall, err := coordinatorOracle(ctx, h, fx, canon)
	if err != nil {
		return nil, err
	}
	rep.Set("query_oracle_recall", recall, "ratio")
	if err := checkCoordinatorBatch(ctx, h, co, mix); err != nil {
		return nil, err
	}
	if h.tr != nil {
		if err := measureLayers(ctx, h, rep, pop, cfg.Seed, cfg.TmpDir); err != nil {
			return nil, err
		}
	}
	rep.finish(h)
	return rep, nil
}

// shardMerge answers q in process: every shard engine's own results,
// concatenated and sorted by ID.
func shardMerge(ctx context.Context, nodes []*shardNode, q *query.Query) ([]cluster.Result, error) {
	var out []cluster.Result
	for _, n := range nodes {
		rs, err := n.eng.QueryASTContext(ctx, q)
		if errors.Is(err, sommelier.ErrUnknownReference) {
			continue
		}
		if err != nil {
			return nil, err
		}
		for _, r := range rs {
			out = append(out, cluster.Result{ID: r.ID, Level: r.Level, Synthesized: r.Synthesized,
				DonorID: r.DonorID, Segment: r.Segment, Derived: r.Derived, Profile: r.Profile})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// coordinatorOracle runs the oracle of oracleRecall through the
// coordinator and, for every query it looks at, also checks that the
// coordinator's answer is the in-process merge of the shard engines'
// own answers.
func coordinatorOracle(ctx context.Context, h *Harness, fx *clusterFixture, qs []Query) (float64, error) {
	var hit, want, checked int
	for i := range qs {
		q := &qs[i]
		ast, err := query.Parse(q.Text)
		if err != nil {
			return 0, err
		}
		resp, err := fx.co.Query(ctx, q.Text)
		if err != nil {
			return 0, err
		}
		got := append([]cluster.Result(nil), resp.Results...)
		sort.Slice(got, func(i, j int) bool { return got[i].ID < got[j].ID })
		merged, err := shardMerge(ctx, fx.nodes, ast)
		if err != nil {
			return 0, err
		}
		same := resp.Class() == cluster.OutcomeFull && len(got) == len(merged) && (len(got) == 0 || reflect.DeepEqual(got, merged))
		h.Count(1, btoi(!same))
		h.Check("coordinator_equals_shard_merge", same, "coordinator answer to %q (%s, %d results) differs from the shard engines' merge (%d results)",
			q.Text, resp.Class(), len(got), len(merged))
		if q.Shape == ShapeSim || q.Shape == ShapeExec {
			continue
		}
		open := *ast
		open.Constraints = nil
		all, err := shardMerge(ctx, fx.nodes, &open)
		if err != nil {
			return 0, err
		}
		ref := ast.Ref
		if ref == "" {
			ref = fx.defaultRef
		}
		expected := map[string]bool{}
		for _, n := range fx.nodes {
			if refProf, ok := n.eng.Profile(ref); ok {
				for _, r := range all {
					if satisfies(ast.Constraints, r.Profile, refProf) {
						expected[r.ID] = true
					}
				}
			}
		}
		stray := 0
		for _, r := range got {
			if expected[r.ID] {
				hit++
			} else {
				stray++
			}
		}
		want += len(expected)
		checked++
		h.Count(1, min(stray, 1))
		h.Check("oracle_no_stray_result", stray == 0, "%q returned %d models outside the oracle's set", q.Text, stray)
	}
	if want == 0 {
		return 0, fmt.Errorf("bench: oracle expected no results over %d queries; the mix is degenerate", checked)
	}
	return float64(hit) / float64(want), nil
}

// checkCoordinatorBatch compares Coordinator.QueryBatch with one
// Coordinator.Query per query over the first batches of the mix.
func checkCoordinatorBatch(ctx context.Context, h *Harness, co *cluster.Coordinator, mix *QueryMix) error {
	for b := 0; b < 2; b++ {
		qs := mix.Texts(b*queryBatch, (b+1)*queryBatch)
		got, errs := co.QueryBatch(ctx, qs)
		for i, q := range qs {
			if errs[i] != nil {
				return errs[i]
			}
			want, err := co.Query(ctx, q)
			if err != nil {
				return err
			}
			same := len(got[i].Results) == len(want.Results) && (len(want.Results) == 0 || reflect.DeepEqual(got[i].Results, want.Results))
			h.Count(1, btoi(!same))
			h.Check("batch_equals_serial", same, "batched coordinator answer to %q differs from the serial one", q)
		}
	}
	return nil
}
