// Package cluster shards the curated catalog across N hub nodes and
// serves it back as one: a consistent-hash ring partitions models (by
// series when present, else by ID) across shards, every shard is
// replicated R ways, and a scatter-gather Coordinator sends each query
// to the shards that may hold its reference model — every shard until
// a complete answer has shown which do not — failing over between
// replicas and degrading — replica failover → stale last-known-good →
// partial result — per the resilience rules the hub client established.
//
// The package is deterministic by construction: ring placement, top-K
// merging and degradation decisions depend only on inputs and the
// fault schedule, never on map order, wall clocks or global randomness,
// so whole-cluster chaos runs replay byte-for-byte from a seed.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// virtualNodes is the number of ring points per shard. More points
// smooth the partition sizes; the value only changes placement, never
// correctness.
const virtualNodes = 64

// Ring is a consistent-hash ring over shard indices. It is immutable
// after construction; rebuild it to change the shard count.
type Ring struct {
	shards int
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash  uint64
	shard int
}

// NewRing builds a ring of n shards.
func NewRing(n int) (*Ring, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one shard, got %d", n)
	}
	r := &Ring{shards: n, points: make([]ringPoint, 0, n*virtualNodes)}
	for s := 0; s < n; s++ {
		for p := 0; p < virtualNodes; p++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("shard%d#%d", s, p)), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard // deterministic on (unlikely) collisions
	})
	return r, nil
}

// Shards returns the shard count.
func (r *Ring) Shards() int { return r.shards }

// ShardFor maps a placement key to its owning shard: the first ring
// point clockwise from the key's hash.
func (r *Ring) ShardFor(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// PlacementKey returns the ring key for a model: its series when set —
// so a whole series (and the correlations inside it) stays co-located —
// else the model ID.
func PlacementKey(id, series string) string {
	if series != "" {
		return "series:" + series
	}
	return "id:" + id
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	// splitmix64 finalizer: raw FNV of short, similar strings (shard0#1,
	// shard0#2, …) is correlated enough to skew partition sizes badly.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
