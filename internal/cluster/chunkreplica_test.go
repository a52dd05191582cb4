package cluster

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"sommelier/internal/cas"
	"sommelier/internal/faults"
	"sommelier/internal/graph"
	"sommelier/internal/obs"
	"sommelier/internal/repo"
	"sommelier/internal/zoo"
)

// denseReplica is a minimal store-backed Replica that unpacks every
// encoded publish into a whole-model store write, counting them.
type denseReplica struct {
	store *repo.Repository
	dense atomic.Int64
}

func newDenseReplica() *denseReplica { return &denseReplica{store: repo.NewInMemory()} }

func (d *denseReplica) QueryBatch(ctx context.Context, qs []string) ([][]Result, []error, error) {
	return make([][]Result, len(qs)), make([]error, len(qs)), nil
}
func (d *denseReplica) Generation() (uint64, bool) { return 0, false }
func (d *denseReplica) PublishEncoded(ctx context.Context, enc *cas.Encoded) (string, error) {
	d.dense.Add(1)
	return d.store.Publish(enc.Model)
}
func (d *denseReplica) Load(ctx context.Context, id string) (*graph.Model, error) {
	return d.store.Load(id)
}
func (d *denseReplica) List(ctx context.Context) ([]repo.Metadata, error) {
	return d.store.List(), nil
}
func (d *denseReplica) Delete(ctx context.Context, id string) error { return d.store.Delete(id) }

// chunkStubReplica stores the chunks as sent, counting chunked publishes.
type chunkStubReplica struct {
	denseReplica
	chunked atomic.Int64
}

func newChunkStubReplica() *chunkStubReplica {
	return &chunkStubReplica{denseReplica: denseReplica{store: repo.NewInMemory()}}
}

func (c *chunkStubReplica) PublishEncoded(ctx context.Context, enc *cas.Encoded) (string, error) {
	c.chunked.Add(1)
	return c.store.PublishEncoded(enc)
}

func chunkTestModel(t *testing.T) *graph.Model {
	t.Helper()
	m, err := zoo.DenseResidualNet(zoo.Config{Name: "ckr", Seed: 7, Width: 16, Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	m.Version = "1"
	return m
}

// TestFaultyReplicaChunkFaultAccounting: a publish through
// FaultyReplica draws exactly one scheduled fault — so chaos fault
// windows count replica-publishes — and delegates to the inner
// replica's PublishEncoded, whatever that replica does with the chunks.
func TestFaultyReplicaChunkFaultAccounting(t *testing.T) {
	enc, err := cas.Encode(chunkTestModel(t), "", nil, 0)
	if err != nil {
		t.Fatal(err)
	}

	inner := newChunkStubReplica()
	sched := faults.NewSchedule(1)
	sched.Set(Target(0, 0), faults.Kill(0, 0)) // first op faulted, rest pass
	fr := NewFaultyReplica(inner, Target(0, 0), sched)
	if _, err := fr.PublishEncoded(context.Background(), enc); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("scheduled fault not injected: %v", err)
	}
	if got := inner.chunked.Load(); got != 0 {
		t.Fatalf("fault did not stop the publish: %d chunked publishes", got)
	}

	plain := newDenseReplica()
	fp := NewFaultyReplica(plain, Target(0, 1), faults.NewSchedule(1))
	if _, err := fp.PublishEncoded(context.Background(), enc); err != nil {
		t.Fatal(err)
	}
	if got := plain.dense.Load(); got != 1 {
		t.Fatalf("plain inner saw %d dense publishes, want 1", got)
	}
}

// TestRepairUsesChunkPath: anti-entropy copies ride the chunk protocol.
func TestRepairUsesChunkPath(t *testing.T) {
	holder := newChunkStubReplica()
	missing := newChunkStubReplica()
	c, err := NewCluster([][]Replica{{holder, missing}})
	if err != nil {
		t.Fatal(err)
	}
	m := chunkTestModel(t)
	if _, err := holder.store.Publish(m); err != nil {
		t.Fatal(err)
	}
	report, err := c.Repair(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if report.Copies != 1 {
		t.Fatalf("repair made %d copies, want 1", report.Copies)
	}
	if got := missing.chunked.Load(); got != 1 {
		t.Fatalf("repair used %d chunked publishes on the missing replica, want 1", got)
	}
	if got := missing.dense.Load(); got != 0 {
		t.Fatalf("repair fell back to %d dense publishes, want 0", got)
	}
	if _, err := missing.store.Load("ckr@1"); err != nil {
		t.Fatal(err)
	}
}

// TestLoadCountsProbes: every replica that answers not-found before the
// one holding the model counts into cluster_load_probes_total — none
// when the bare ID's owner holds it, the owner's two replicas when the
// model lives on the other shard, all four when no shard has it.
func TestLoadCountsProbes(t *testing.T) {
	reps := [][]*denseReplica{{newDenseReplica(), newDenseReplica()}, {newDenseReplica(), newDenseReplica()}}
	topo := make([][]Replica, len(reps))
	for s, rs := range reps {
		for _, r := range rs {
			topo[s] = append(topo[s], r)
		}
	}
	o := obs.New()
	c, err := NewCluster(topo, WithClusterObserver(o))
	if err != nil {
		t.Fatal(err)
	}
	m := chunkTestModel(t)
	owner := c.ShardFor("ckr@1", "")
	probes := o.Registry().Counter("cluster_load_probes_total")
	for _, tc := range []struct {
		name  string
		shard int
		want  int64
	}{{"owner", owner, 0}, {"off-owner", 1 - owner, 2}} {
		for _, r := range reps[tc.shard] {
			if _, err := r.store.Publish(m); err != nil {
				t.Fatal(err)
			}
		}
		before := probes.Value()
		if _, err := c.Load(context.Background(), "ckr@1"); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := probes.Value() - before; got != tc.want {
			t.Fatalf("%s: %d probes, want %d", tc.name, got, tc.want)
		}
		for _, r := range reps[tc.shard] {
			if err := r.store.Delete("ckr@1"); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := probes.Value()
	if _, err := c.Load(context.Background(), "ckr@1"); !errors.Is(err, repo.ErrNotFound) {
		t.Fatalf("load of an absent model: %v, want ErrNotFound", err)
	}
	if got := probes.Value() - before; got != 4 {
		t.Fatalf("absent model: %d probes, want 4", got)
	}
}
