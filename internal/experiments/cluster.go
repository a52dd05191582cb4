package experiments

import (
	"context"
	"errors"
	"fmt"

	"sommelier"
	"sommelier/internal/cas"
	"sommelier/internal/cluster"
	"sommelier/internal/graph"
	"sommelier/internal/obs"
	"sommelier/internal/repo"
	"sommelier/internal/zoo"
)

// EngineReplica is one in-process shard replica: a private in-memory
// store with a Sommelier engine over it, satisfying cluster.Replica.
// Replicas of the same shard, built with the same seed and fed the
// same publishes, produce byte-identical query answers — which is what
// makes replica failover invisible to clients.
type EngineReplica struct {
	store          *repo.Repository
	eng            *sommelier.Engine
	seed           uint64
	validationSize int
	obs            *obs.Observer
}

// NewEngineReplica builds an empty replica. o may be nil; a shared
// observer folds the replica's engine metrics into the cluster
// snapshot.
func NewEngineReplica(seed uint64, validationSize int, o *obs.Observer) (*EngineReplica, error) {
	store := repo.NewInMemory()
	eng, err := sommelier.NewEngine(store,
		sommelier.WithSeed(seed),
		sommelier.WithValidationSize(validationSize),
		sommelier.WithObserver(o))
	if err != nil {
		return nil, err
	}
	return &EngineReplica{store: store, eng: eng, seed: seed, validationSize: validationSize, obs: o}, nil
}

// Engine exposes the replica's engine (tests assert against it).
func (r *EngineReplica) Engine() *sommelier.Engine { return r.eng }

// Query answers through the replica's engine. An unknown reference is
// an empty contribution — in a sharded catalog most shards do not hold
// any given reference model.
func (r *EngineReplica) Query(ctx context.Context, q string) ([]cluster.Result, error) {
	rs, err := r.eng.QueryContext(ctx, q)
	if err != nil {
		if errors.Is(err, sommelier.ErrUnknownReference) {
			return nil, nil
		}
		return nil, err
	}
	return toClusterResults(rs), nil
}

// QueryBatch answers the whole batch through the engine's batched
// query path — one catalog snapshot and one reprofile memo for all
// queries — with the same unknown-reference-is-empty mapping as Query.
func (r *EngineReplica) QueryBatch(ctx context.Context, qs []string) ([][]cluster.Result, []error, error) {
	rss, qerrs := r.eng.QueryBatchContext(ctx, qs)
	results := make([][]cluster.Result, len(qs))
	errs := make([]error, len(qs))
	for i := range qs {
		if err := qerrs[i]; err != nil {
			if !errors.Is(err, sommelier.ErrUnknownReference) {
				errs[i] = err
			}
			continue
		}
		results[i] = toClusterResults(rss[i])
	}
	return results, errs, nil
}

// toClusterResults is a struct conversion, so a field added to one
// Result declaration and not the other is a compile error here.
func toClusterResults(rs []sommelier.Result) []cluster.Result {
	out := make([]cluster.Result, len(rs))
	for i, res := range rs {
		out[i] = cluster.Result(res)
	}
	return out
}

// PublishEncoded stores and indexes an already-chunked model. The
// replica's store deduplicates against chunks it already holds —
// replicating a fine-tuned series costs each replica only the series'
// unique tensors — and a fresh upload that fails to index is rolled
// back, the hub server's "published implies indexed" rule.
func (r *EngineReplica) PublishEncoded(ctx context.Context, enc *cas.Encoded) (string, error) {
	id := enc.Manifest.ID()
	_, existed := r.store.Metadata(id)
	if _, err := r.store.PublishEncoded(enc); err != nil {
		return "", err
	}
	m := enc.Model
	if m == nil {
		var err error
		if m, err = r.store.Load(id); err != nil {
			return "", err
		}
	}
	if err := r.eng.IndexModel(ctx, id, m); err != nil {
		if !existed {
			_ = r.store.Delete(id)
		}
		return "", fmt.Errorf("indexing %q: %w", id, err)
	}
	return id, nil
}

// Load fetches from the replica's store.
func (r *EngineReplica) Load(ctx context.Context, id string) (*graph.Model, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return r.store.Load(id)
}

// List returns the replica's metadata.
func (r *EngineReplica) List(ctx context.Context) ([]repo.Metadata, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return r.store.List(), nil
}

// Delete removes the model from the store. The engine's index keeps
// its entry until Rebuild; callers that delete outside a rebalance
// (which rebuilds) accept briefly-stale index entries, the same
// trade-off the hub server makes.
func (r *EngineReplica) Delete(ctx context.Context, id string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return r.store.Delete(id)
}

// Rebuild replaces the engine with a fresh one indexed from the
// current store contents — the post-rebalance step that drops moved
// models from the index.
func (r *EngineReplica) Rebuild(ctx context.Context) error {
	eng, err := sommelier.NewEngine(r.store,
		sommelier.WithSeed(r.seed),
		sommelier.WithValidationSize(r.validationSize),
		sommelier.WithObserver(r.obs))
	if err != nil {
		return err
	}
	if err := eng.IndexAllContext(ctx); err != nil {
		return err
	}
	r.eng = eng
	return nil
}

// ClusterTopology sizes an in-process cluster.
type ClusterTopology struct {
	Shards, Replicas int
	// Seed drives every engine; replicas of a shard share it so their
	// answers are interchangeable.
	Seed uint64
	// ValidationSize is the per-task probe dataset size (speed knob).
	ValidationSize int
}

// ReplicaWrap decorates a freshly built replica — the chaos hook where
// tests interpose cluster.NewFaultyReplica. nil means no wrapping.
type ReplicaWrap func(shard, replica int, r cluster.Replica) cluster.Replica

// BuildCluster assembles Shards×Replicas in-process engine replicas
// into a cluster and a coordinator over it, both reporting to o (which
// may be nil).
func BuildCluster(top ClusterTopology, wrap ReplicaWrap, o *obs.Observer,
	copts ...cluster.CoordinatorOption) (*cluster.Cluster, *cluster.Coordinator, error) {
	if top.Shards <= 0 || top.Replicas <= 0 {
		return nil, nil, fmt.Errorf("experiments: cluster topology needs positive shards and replicas, got %d×%d",
			top.Shards, top.Replicas)
	}
	shards := make([][]cluster.Replica, top.Shards)
	for s := 0; s < top.Shards; s++ {
		shards[s] = make([]cluster.Replica, top.Replicas)
		for r := 0; r < top.Replicas; r++ {
			rep, err := NewEngineReplica(top.Seed, top.ValidationSize, nil)
			if err != nil {
				return nil, nil, err
			}
			var replica cluster.Replica = rep
			if wrap != nil {
				replica = wrap(s, r, replica)
			}
			shards[s][r] = replica
		}
	}
	cl, err := cluster.NewCluster(shards, cluster.WithClusterObserver(o))
	if err != nil {
		return nil, nil, err
	}
	opts := append([]cluster.CoordinatorOption{cluster.WithCoordinatorObserver(o)}, copts...)
	co, err := cluster.NewCoordinator(cl.Backends(), opts...)
	if err != nil {
		return nil, nil, err
	}
	return cl, co, nil
}

// SeedClusterModels publishes a correlated model family into the
// cluster: one base model broadcast to every shard (the reference every
// shard can correlate against) and n perturbed variants sharded by the
// ring. Variant perturbations grow with the index, so equivalence
// levels — and therefore the merged top-K order — are non-trivial.
// Returns the reference ID and the variant IDs in publish order.
func SeedClusterModels(ctx context.Context, c *cluster.Cluster, n, width, depth int, seed uint64) (string, []string, error) {
	base, err := zoo.DenseResidualNet(zoo.Config{Name: "cluster-base", Seed: seed, Width: width, Depth: depth})
	if err != nil {
		return "", nil, err
	}
	refID, err := c.Broadcast(ctx, base)
	if err != nil {
		return "", nil, err
	}
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		frac := 0.005 * float64(i+1)
		v := zoo.Perturb(base, fmt.Sprintf("cluster-v%02d", i), frac, seed+uint64(i)+1)
		id, err := c.Publish(ctx, v)
		if err != nil {
			return "", nil, fmt.Errorf("publishing variant %d: %w", i, err)
		}
		ids = append(ids, id)
	}
	return refID, ids, nil
}
