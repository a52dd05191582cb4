// Command sommhub serves a model repository over HTTP with the bare-bone
// publish/load/list interface existing hubs expose (§2.1). Point the
// sommelier CLI at it with -hub to index a remote repository.
//
// The server is hardened for unattended operation: PUT bodies are
// size-capped, /v1/healthz reports liveness, header reads are bounded,
// and SIGINT/SIGTERM drain in-flight requests before exiting — a signal
// during the startup index cancels it mid-batch.
//
// With -index the hub maintains a Sommelier catalog of its own: the
// repository is indexed at startup (fanned out across -index-workers),
// every accepted upload is indexed before the PUT is acknowledged, and
// GET /v1/query answers Sommelier queries over the catalog.
//
// The hub also scales out. Three cluster roles:
//
//   - Shard node: -shard I -shards N marks a standalone hub as shard I
//     of an N-shard cluster; /v1/healthz advertises the slot so a
//     coordinator can verify topology before routing traffic.
//   - In-process cluster: -shards N -replicas R (without -shard) runs N
//     shards × R engine-backed replicas inside one process behind a
//     consistent-hash ring. Writes replicate R ways, GET /v1/query
//     scatter-gathers across all shards with per-shard failover and the
//     degradation ladder (replica failover → stale last-known-good →
//     partial result); the query payload is the full cluster Response,
//     including any missing/stale shard tags.
//   - Coordinator: -coordinator "u1,u2;u3,u4" fronts remote shard hubs
//     (';' separates shards, ',' separates a shard's replicas, each
//     running with -index) with the same scatter-gather read path and
//     replicated write path.
//
// In the cluster roles, a PUT whose model metadata carries
// placement=broadcast is written to every shard — the placement for
// reference models all shards must be able to correlate against.
//
// The hub is observable end to end: GET /v1/metrics returns one JSON
// snapshot unifying per-endpoint request counters and latency
// percentiles with the engine's (or cluster's) metrics, and with
// -trace GET /v1/tracez returns the recent index/query span ring.
//
//	sommhub -repo ./models -listen :8750 -seed-demo
//	sommhub -repo ./models -index -index-workers 8 -trace
//	sommhub -shards 4 -replicas 2 -seed-demo          # in-process cluster
//	sommhub -coordinator "http://a:8750,http://b:8750;http://c:8750,http://d:8750"
//	sommelier -hub http://localhost:8750 -query '...'
//	curl localhost:8750/v1/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sommelier"
	"sommelier/internal/cluster"
	"sommelier/internal/dataset"
	"sommelier/internal/experiments"
	"sommelier/internal/graph"
	"sommelier/internal/hub"
	"sommelier/internal/obs"
	"sommelier/internal/repo"
	"sommelier/internal/zoo"
)

func main() {
	var (
		repoDir      = flag.String("repo", "", "repository directory (empty = in-memory; standalone mode only)")
		listen       = flag.String("listen", ":8750", "listen address")
		seedDemo     = flag.Bool("seed-demo", false, "populate with a demo model family")
		seed         = flag.Uint64("seed", 7, "random seed for demo models and cluster engines")
		maxBodyMB    = flag.Int64("max-body-mb", 64, "PUT body size limit in MiB")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown drain window")
		doIndex      = flag.Bool("index", false, "maintain a Sommelier catalog: index existing models at startup and every accepted upload")
		indexWorkers = flag.Int("index-workers", 0, "indexing concurrency (0 = GOMAXPROCS; needs -index)")
		trace        = flag.Bool("trace", false, "record index/query spans and serve them at /v1/tracez")
		shards       = flag.Int("shards", 0, "cluster shard count: with -shard, the advertised total; without, runs an in-process cluster of this many shards")
		replicas     = flag.Int("replicas", 2, "replicas per shard in in-process cluster mode")
		shardID      = flag.Int("shard", -1, "this hub's shard index (standalone shard node; needs -shards)")
		coordinator  = flag.String("coordinator", "", `front remote shard hubs: ';'-separated shards of ','-separated replica URLs`)
		validation   = flag.Int("validation", 64, "per-task probe dataset size for cluster-mode engines")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// One observer spans the whole process: HTTP endpoint metrics, the
	// engine's (or cluster's) metrics, and the span ring all land in the
	// same /v1/metrics snapshot.
	traceCap := 0
	if *trace {
		traceCap = obs.DefaultTraceCap
	}
	o := obs.New(obs.WithTraceCap(traceCap))

	opts := []hub.ServerOption{
		hub.WithMaxBodyBytes(*maxBodyMB << 20),
		hub.WithServerObserver(o),
	}

	var srvStore repo.Store
	switch {
	case *coordinator != "":
		topo, err := parseCoordinatorTopology(*coordinator)
		if err != nil {
			fatal(err)
		}
		cl, co, err := buildCoordinator(topo, o)
		if err != nil {
			fatal(err)
		}
		srvStore = &clusterStore{cl: cl}
		opts = append(opts,
			hub.WithQuerier(func(ctx context.Context, q string) (any, error) {
				return co.Query(ctx, q)
			}),
			hub.WithBatchQuerier(coordinatorBatchQuerier(co)))
		fmt.Printf("sommhub coordinator over %d shard(s)\n", cl.Shards())

	case *shards > 1 && *shardID < 0:
		top := experiments.ClusterTopology{
			Shards: *shards, Replicas: *replicas,
			Seed: *seed, ValidationSize: *validation,
		}
		cl, co, err := experiments.BuildCluster(top, nil, o)
		if err != nil {
			fatal(err)
		}
		if *seedDemo {
			if _, _, err := experiments.SeedClusterModels(ctx, cl, 6, 16, 2, *seed); err != nil {
				fatal(err)
			}
		}
		srvStore = &clusterStore{cl: cl}
		opts = append(opts,
			hub.WithQuerier(func(ctx context.Context, q string) (any, error) {
				return co.Query(ctx, q)
			}),
			hub.WithBatchQuerier(coordinatorBatchQuerier(co)))
		fmt.Printf("sommhub in-process cluster: %d shards x %d replicas\n", *shards, *replicas)

	default:
		var store *repo.Repository
		var err error
		if *repoDir == "" {
			store = repo.NewInMemory()
		} else if store, err = repo.Open(*repoDir); err != nil {
			fatal(err)
		}
		if *seedDemo {
			if err := seedModels(store, *seed); err != nil {
				fatal(err)
			}
			fmt.Printf("seeded %d demo models\n", store.Len())
		}
		if *doIndex {
			eng, err := sommelier.NewEngine(store,
				sommelier.WithSeed(*seed),
				sommelier.WithIndexWorkers(*indexWorkers),
				sommelier.WithObserver(o))
			if err != nil {
				fatal(err)
			}
			start := time.Now()
			if err := eng.IndexAllContext(ctx); err != nil {
				fatal(fmt.Errorf("indexing repository: %w", err))
			}
			fmt.Printf("indexed %d models in %s (%d workers)\n",
				eng.IndexedLen(), time.Since(start).Round(time.Millisecond), *indexWorkers)
			opts = append(opts,
				hub.WithIndexer(eng),
				hub.WithQuerier(func(ctx context.Context, q string) (any, error) {
					return eng.QueryContext(ctx, q)
				}),
				hub.WithBatchQuerier(engineBatchQuerier(eng)))
		}
		if *shardID >= 0 {
			if *shards <= *shardID {
				fatal(fmt.Errorf("-shard %d needs -shards > %d", *shardID, *shardID))
			}
			opts = append(opts, hub.WithShardInfo(*shardID, *shards))
			fmt.Printf("sommhub shard %d of %d\n", *shardID, *shards)
		}
		srvStore = store
	}

	srv, err := hub.NewServer(srvStore, opts...)
	if err != nil {
		fatal(err)
	}
	httpSrv := &http.Server{
		Addr:              *listen,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Printf("sommhub serving %d models on %s\n", srvStore.Len(), *listen)

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	case <-ctx.Done():
		stop() // restore default signal handling: a second signal kills
		fmt.Println("sommhub: draining in-flight requests")
		sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(sctx); err != nil {
			fatal(fmt.Errorf("shutdown: %w", err))
		}
		fmt.Println("sommhub: stopped cleanly")
	}
}

// engineBatchQuerier adapts an engine's batched query path to the hub
// server's POST /v1/query. Unknown-reference failures carry the
// machine-readable code a cluster coordinator needs to treat a shard
// that simply lacks the reference as an empty contribution.
func engineBatchQuerier(eng *sommelier.Engine) hub.BatchQuerier {
	return func(ctx context.Context, qs []string) ([]any, []*hub.QueryError) {
		results, errs := eng.QueryBatchContext(ctx, qs)
		out := make([]any, len(qs))
		qerrs := make([]*hub.QueryError, len(qs))
		for i := range qs {
			if err := errs[i]; err != nil {
				qe := &hub.QueryError{Message: err.Error()}
				if errors.Is(err, sommelier.ErrUnknownReference) {
					qe.Code = hub.CodeUnknownReference
				}
				qerrs[i] = qe
				continue
			}
			out[i] = results[i]
		}
		return out, qerrs
	}
}

// coordinatorBatchQuerier adapts a cluster coordinator's batched
// scatter-gather to the hub server's POST /v1/query.
func coordinatorBatchQuerier(co *cluster.Coordinator) hub.BatchQuerier {
	return func(ctx context.Context, qs []string) ([]any, []*hub.QueryError) {
		responses, errs := co.QueryBatch(ctx, qs)
		out := make([]any, len(qs))
		qerrs := make([]*hub.QueryError, len(qs))
		for i := range qs {
			if err := errs[i]; err != nil {
				qerrs[i] = &hub.QueryError{Message: err.Error()}
				continue
			}
			out[i] = responses[i]
		}
		return out, qerrs
	}
}

// parseCoordinatorTopology parses "u1,u2;u3,u4" into per-shard replica
// URL lists.
func parseCoordinatorTopology(spec string) ([][]string, error) {
	var topo [][]string
	for i, shard := range strings.Split(spec, ";") {
		var urls []string
		for _, u := range strings.Split(shard, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		if len(urls) == 0 {
			return nil, fmt.Errorf("-coordinator: shard %d has no replica URLs", i)
		}
		topo = append(topo, urls)
	}
	if len(topo) == 0 {
		return nil, fmt.Errorf("-coordinator: no shards in %q", spec)
	}
	return topo, nil
}

// buildCoordinator wires hub clients for every replica URL into a
// cluster and its scatter-gather coordinator.
func buildCoordinator(topo [][]string, o *obs.Observer) (*cluster.Cluster, *cluster.Coordinator, error) {
	reps := make([][]cluster.Replica, len(topo))
	for s, urls := range topo {
		for _, u := range urls {
			client, err := hub.NewClient(u, nil)
			if err != nil {
				return nil, nil, fmt.Errorf("shard %d replica %q: %w", s, u, err)
			}
			reps[s] = append(reps[s], cluster.NewHTTPReplica(client))
		}
	}
	cl, err := cluster.NewCluster(reps, cluster.WithClusterObserver(o))
	if err != nil {
		return nil, nil, err
	}
	co, err := cluster.NewCoordinator(cl.Backends(), cluster.WithCoordinatorObserver(o))
	if err != nil {
		return nil, nil, err
	}
	return cl, co, nil
}

// clusterStore adapts a Cluster to the hub server's Store surface, so
// the standard publish/load/list endpoints front the whole cluster. A
// model whose metadata carries placement=broadcast is written to every
// shard; everything else shards by the ring. Partial writes (some
// replicas down) are accepted and logged: the model is durable, but the
// shard's replicas stay diverged until something calls Cluster.Repair,
// which no binary does.
type clusterStore struct {
	cl *cluster.Cluster
}

func (s *clusterStore) Publish(m *graph.Model) (string, error) {
	var id string
	var err error
	if m.Metadata != nil && m.Metadata["placement"] == "broadcast" {
		id, err = s.cl.Broadcast(context.Background(), m)
	} else {
		id, err = s.cl.Publish(context.Background(), m)
	}
	var pw *cluster.PartialWriteError
	if errors.As(err, &pw) {
		fmt.Fprintf(os.Stderr, "sommhub: accepted partial write: %v\n", pw)
		return id, nil
	}
	return id, err
}

func (s *clusterStore) Load(id string) (*graph.Model, error) {
	return s.cl.Load(context.Background(), id)
}

func (s *clusterStore) Delete(id string) error {
	return s.cl.Delete(context.Background(), id)
}

func (s *clusterStore) List() []repo.Metadata {
	mds, err := s.cl.List(context.Background())
	if err != nil {
		return nil
	}
	return mds
}

func (s *clusterStore) Metadata(id string) (repo.Metadata, bool) {
	for _, md := range s.List() {
		if md.ID == id {
			return md, true
		}
	}
	return repo.Metadata{}, false
}

func (s *clusterStore) Len() int { return len(s.List()) }

func seedModels(store *repo.Repository, seed uint64) error {
	base, err := zoo.DenseResidualNet(zoo.Config{Name: "hub-base", Seed: seed, Width: 32, Depth: 2})
	if err != nil {
		return err
	}
	if _, err := store.Publish(base); err != nil {
		return err
	}
	probes := dataset.RandomImages(300, base.InputShape, seed+1)
	for i, target := range []float64{0.03, 0.08, 0.15} {
		v, _, err := zoo.CalibratedVariant(base, fmt.Sprintf("hub-v%d", i), target, probes, seed+uint64(i)+2)
		if err != nil {
			return err
		}
		if _, err := store.Publish(v); err != nil {
			return err
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sommhub:", err)
	os.Exit(1)
}
