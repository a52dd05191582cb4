package experiments

import (
	"context"
	"fmt"

	"sommelier"
	"sommelier/internal/cluster"
	"sommelier/internal/obs"
	"sommelier/internal/zoo"
)

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
			rep, err := sommelier.NewEngineReplica(top.Seed, top.ValidationSize, nil)
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
