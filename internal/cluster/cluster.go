package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"sommelier/internal/cas"
	"sommelier/internal/graph"
	"sommelier/internal/obs"
	"sommelier/internal/repo"
)

// ErrAllReplicasFailed is wrapped by write and read errors when no
// replica of the owning shard could serve the operation.
var ErrAllReplicasFailed = errors.New("cluster: all replicas failed")

// PartialWriteError reports a write that some — but not all — replicas
// of the owning shard accepted. The write is durable (at least one
// replica has it) but the shard's replicas have diverged until Repair
// copies it across; callers that need full replication before
// acknowledging can treat this as an error, callers that need
// availability can accept it.
type PartialWriteError struct {
	// ID is the model the write concerned.
	ID string
	// Errs maps replica target names to the error that lost them the
	// write.
	Errs map[string]error
	// Accepted is how many replicas took the write.
	Accepted int
}

// Error lists the failed replicas in a stable order.
func (e *PartialWriteError) Error() string {
	targets := make([]string, 0, len(e.Errs))
	for t := range e.Errs {
		targets = append(targets, t)
	}
	sort.Strings(targets)
	parts := make([]string, len(targets))
	for i, t := range targets {
		parts[i] = t + ": " + e.Errs[t].Error()
	}
	return fmt.Sprintf("cluster: publish %s: %d replica(s) accepted, %d failed: %s",
		e.ID, e.Accepted, len(targets), strings.Join(parts, "; "))
}

// ClusterOption configures a Cluster.
type ClusterOption func(*Cluster)

// WithClusterObserver attaches an observability handle: writes count
// into cluster_publish_total / cluster_publish_partial_total /
// cluster_publish_failed_total, repair into cluster_repair_copies_total,
// not-found load answers into cluster_load_probes_total and unlistable
// shards into cluster_shard<i>_errors_total.
func WithClusterObserver(o *obs.Observer) ClusterOption { return func(c *Cluster) { c.obs = o } }

// Cluster owns the write path and placement of a sharded, replicated
// hub: a consistent-hash ring assigns every model (by series when set)
// to one shard, writes go to all of that shard's replicas, and the
// repair pass restores the invariant a failure breaks — replica
// divergence after a partial write. The topology is fixed when the
// cluster is built, so ring and shards are read without a lock.
type Cluster struct {
	obs    *obs.Observer
	ring   *Ring
	shards [][]Replica
}

// NewCluster builds a cluster over the replica topology; every shard
// needs at least one replica.
func NewCluster(shards [][]Replica, opts ...ClusterOption) (*Cluster, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: needs at least one shard")
	}
	for i, reps := range shards {
		if len(reps) == 0 {
			return nil, fmt.Errorf("cluster: shard %d has no replicas", i)
		}
	}
	ring, err := NewRing(len(shards))
	if err != nil {
		return nil, err
	}
	c := &Cluster{shards: shards, ring: ring}
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// Shards returns the shard count.
func (c *Cluster) Shards() int { return len(c.shards) }

// Backends returns the query-only topology view for a Coordinator.
func (c *Cluster) Backends() [][]QueryBackend { return Backends(c.shards) }

// ShardFor returns the shard owning a model.
func (c *Cluster) ShardFor(id, series string) int {
	return c.ring.ShardFor(PlacementKey(id, series))
}

// encodeOnce chunk-encodes a model for replication, refusing an
// invalid one. The encoding is computed once per logical write and
// shared by every replica copy; each replica then receives only the
// chunks it is missing.
func encodeOnce(m *graph.Model) (*cas.Encoded, error) {
	enc, err := cas.Encode(m, "", nil, 0)
	if err != nil {
		return nil, fmt.Errorf("cluster: refusing invalid model: %w", err)
	}
	return enc, nil
}

// publishTo writes the encoded model to every replica of one shard.
// At least one accepting replica makes the write durable; fewer than
// all yields a *PartialWriteError.
func (c *Cluster) publishTo(ctx context.Context, shard int, reps []Replica, enc *cas.Encoded) (string, error) {
	id := enc.Manifest.ID()
	accepted := 0
	var errs map[string]error
	for r, rep := range reps {
		if _, err := rep.PublishEncoded(ctx, enc); err != nil {
			if errs == nil {
				errs = make(map[string]error)
			}
			errs[Target(shard, r)] = err
			continue
		}
		accepted++
	}
	if errs == nil {
		return id, nil
	}
	if accepted == 0 {
		c.obs.Counter("cluster_publish_failed_total").Inc()
		return "", fmt.Errorf("cluster: publish %s to shard %d: %w: %w",
			id, shard, ErrAllReplicasFailed, &PartialWriteError{ID: id, Errs: errs})
	}
	c.obs.Counter("cluster_publish_partial_total").Inc()
	return id, &PartialWriteError{ID: id, Errs: errs, Accepted: accepted}
}

// Publish routes the model to its ring-assigned shard and writes it to
// every replica there. On partial acceptance the returned ID is valid
// and the error is a *PartialWriteError.
func (c *Cluster) Publish(ctx context.Context, m *graph.Model) (string, error) {
	enc, err := encodeOnce(m)
	if err != nil {
		return "", err
	}
	c.obs.Counter("cluster_publish_total").Inc()
	shard := c.ShardFor(enc.Manifest.ID(), seriesOf(m))
	return c.publishTo(ctx, shard, c.shards[shard], enc)
}

// Broadcast writes the model to every replica of every shard — the
// placement for reference models that queries on any shard must be able
// to correlate against. Partial acceptance aggregates into one
// *PartialWriteError.
func (c *Cluster) Broadcast(ctx context.Context, m *graph.Model) (string, error) {
	enc, err := encodeOnce(m)
	if err != nil {
		return "", err
	}
	c.obs.Counter("cluster_publish_total").Inc()
	id := enc.Manifest.ID()
	accepted := 0
	var errs map[string]error
	for s, reps := range c.shards {
		_, err := c.publishTo(ctx, s, reps, enc)
		var pw *PartialWriteError
		switch {
		case err == nil:
			accepted += len(reps)
		case errors.As(err, &pw):
			accepted += pw.Accepted
			if errs == nil {
				errs = make(map[string]error)
			}
			for t, e := range pw.Errs {
				errs[t] = e
			}
		default:
			if errs == nil {
				errs = make(map[string]error)
			}
			errs[Target(s, 0)] = err
		}
	}
	if errs == nil {
		return id, nil
	}
	if accepted == 0 {
		return "", fmt.Errorf("cluster: broadcast %s: %w", id, ErrAllReplicasFailed)
	}
	return id, &PartialWriteError{ID: id, Errs: errs, Accepted: accepted}
}

// Load fetches a model: the owning shard's replicas first, then every
// other shard — a model placed by its series key lives off the shard a
// bare ID hashes to, so the any-shard fallback is what finds it. Each
// replica that answers not-found counts into cluster_load_probes_total:
// the asks a load spends before the one that finds the model.
func (c *Cluster) Load(ctx context.Context, id string) (*graph.Model, error) {
	owner := c.ShardFor(id, "") // series unknown for a bare ID
	order := make([]int, 0, len(c.shards))
	order = append(order, owner)
	for s := range c.shards {
		if s != owner {
			order = append(order, s)
		}
	}
	var lastErr error = repo.ErrNotFound
	for _, s := range order {
		for _, rep := range c.shards[s] {
			m, err := rep.Load(ctx, id)
			if err == nil {
				return m, nil
			}
			if errors.Is(err, repo.ErrNotFound) {
				c.obs.Counter("cluster_load_probes_total").Inc()
			} else {
				lastErr = err
			}
		}
	}
	return nil, fmt.Errorf("cluster: load %s: %w", id, lastErr)
}

// List merges every shard's metadata into one catalog listing, sorted
// by ID, broadcast duplicates removed. A shard lists through its first
// answering replica; shards with no answering replica are skipped —
// List is a read and degrades like one.
func (c *Cluster) List(ctx context.Context) ([]repo.Metadata, error) {
	seen := make(map[string]bool)
	var out []repo.Metadata
	for s, reps := range c.shards {
		var mds []repo.Metadata
		var err error
		ok := false
		for _, rep := range reps {
			if mds, err = rep.List(ctx); err == nil {
				ok = true
				break
			}
		}
		if !ok {
			c.obs.Counter(fmt.Sprintf("cluster_shard%d_errors_total", s)).Inc()
			continue
		}
		for _, md := range mds {
			if !seen[md.ID] {
				seen[md.ID] = true
				out = append(out, md)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// Delete removes a model from every replica that holds it (broadcast
// models live everywhere, so deletes fan out cluster-wide). Replicas
// that do not hold the model are not an error.
func (c *Cluster) Delete(ctx context.Context, id string) error {
	deleted := 0
	var lastErr error
	for _, reps := range c.shards {
		for _, rep := range reps {
			switch err := rep.Delete(ctx, id); {
			case err == nil:
				deleted++
			case !errors.Is(err, repo.ErrNotFound):
				lastErr = err
			}
		}
	}
	if deleted == 0 {
		if lastErr != nil {
			return fmt.Errorf("cluster: delete %s: %w", id, lastErr)
		}
		return fmt.Errorf("cluster: delete %s: %w", id, repo.ErrNotFound)
	}
	return lastErr
}

// RepairReport summarises one anti-entropy pass.
type RepairReport struct {
	// Copies is the number of (model, replica) copies performed.
	Copies int
	// Failed lists targets that refused a repair copy, sorted.
	Failed []string
}

// Repair runs anti-entropy within every shard: the union of a shard's
// replica listings is computed and every replica missing a model gets
// it copied over (then reindexed by the replica itself). This is the
// recovery path after a *PartialWriteError — once Repair succeeds, the
// shard's replicas are interchangeable again and failover is invisible.
func (c *Cluster) Repair(ctx context.Context) (*RepairReport, error) {
	rep := &RepairReport{}
	for s, reps := range c.shards {
		// Union of IDs across replicas, with a source replica for each.
		have := make([]map[string]bool, len(reps))
		source := make(map[string]int)
		for r, replica := range reps {
			mds, err := replica.List(ctx)
			if err != nil {
				return rep, fmt.Errorf("cluster: repair shard %d: listing %s: %w", s, Target(s, r), err)
			}
			have[r] = make(map[string]bool, len(mds))
			for _, md := range mds {
				have[r][md.ID] = true
				if _, ok := source[md.ID]; !ok {
					source[md.ID] = r
				}
			}
		}
		ids := make([]string, 0, len(source))
		for id := range source {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			var enc *cas.Encoded
			for r := range reps {
				if have[r][id] {
					continue
				}
				if enc == nil {
					m, err := reps[source[id]].Load(ctx, id)
					if err != nil {
						return rep, fmt.Errorf("cluster: repair shard %d: loading %s from %s: %w",
							s, id, Target(s, source[id]), err)
					}
					if enc, err = encodeOnce(m); err != nil {
						return rep, err
					}
				}
				if _, err := reps[r].PublishEncoded(ctx, enc); err != nil {
					rep.Failed = append(rep.Failed, Target(s, r)+":"+id)
					continue
				}
				rep.Copies++
				c.obs.Counter("cluster_repair_copies_total").Inc()
			}
		}
	}
	sort.Strings(rep.Failed)
	if len(rep.Failed) > 0 {
		return rep, fmt.Errorf("cluster: repair: %d copy(ies) failed: %s",
			len(rep.Failed), strings.Join(rep.Failed, ", "))
	}
	return rep, nil
}

// seriesOf extracts the model's series annotation, if any — the
// metadata layer the repo derives Series from.
func seriesOf(m *graph.Model) string {
	if m.Metadata != nil {
		return m.Metadata["series"]
	}
	return ""
}
