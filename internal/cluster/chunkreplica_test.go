package cluster

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"sommelier/internal/cas"
	"sommelier/internal/faults"
	"sommelier/internal/graph"
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

func (d *denseReplica) Query(ctx context.Context, q string) ([]Result, error) { return nil, nil }
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
