package cluster

import (
	"context"
	"fmt"
	"time"

	"sommelier/internal/cas"
	"sommelier/internal/faults"
	"sommelier/internal/graph"
	"sommelier/internal/repo"
)

// QueryBackend answers queries for one shard replica. A backend must
// treat an unknown reference model as an empty answer, not an error —
// in a sharded catalog most shards do not hold any given reference.
// The coordinator sends an attempt of exactly one query through Query.
type QueryBackend interface {
	Query(ctx context.Context, q string) ([]Result, error)
}

// BatchQueryBackend is the optional batched surface of a QueryBackend,
// which the coordinator uses for an attempt of more than one query:
// QueryBatch answers every query against one catalog state. results and
// errs are index-aligned with qs — exactly one of results[i]/errs[i] is
// meaningful per slot. The outer error is transport-level: the whole
// attempt failed and nothing per-query is known, so the coordinator
// fails the entire pending set over to the next replica. Like Query, an
// unknown reference must surface as an empty answer, not an error.
// Backends without this surface are driven by a serial Query loop;
// FaultyReplica deliberately omits it so chaos schedules draw one fault
// per query whatever the batch size.
type BatchQueryBackend interface {
	QueryBatch(ctx context.Context, qs []string) ([][]Result, []error, error)
}

// Replica is one replica of one shard: the query surface plus the
// store surface the Cluster needs for placement, replication, repair
// and rebalancing. In-process replicas wrap an engine over a private
// store; remote replicas wrap a hub client.
type Replica interface {
	QueryBackend
	// PublishEncoded stores and indexes the model. Replication encodes
	// a model once as manifest + chunks and each receiver stores (or
	// transfers) only the chunks it is missing — a fine-tuned series
	// replicates at the cost of its unique tensors.
	PublishEncoded(ctx context.Context, enc *cas.Encoded) (string, error)
	// Load fetches a model; repo.ErrNotFound (wrapped) for unknown IDs.
	Load(ctx context.Context, id string) (*graph.Model, error)
	// List returns the replica's model metadata.
	List(ctx context.Context) ([]repo.Metadata, error)
	// Delete removes a model.
	Delete(ctx context.Context, id string) error
	// Rebuild re-indexes the replica from its current store contents —
	// the post-rebalance step that drops index entries for moved-away
	// models.
	Rebuild(ctx context.Context) error
}

// Backends converts a cluster's replica topology to the query-only view
// a Coordinator takes.
func Backends(shards [][]Replica) [][]QueryBackend {
	out := make([][]QueryBackend, len(shards))
	for i, reps := range shards {
		out[i] = make([]QueryBackend, len(reps))
		for j, r := range reps {
			out[i][j] = r
		}
	}
	return out
}

// Target names a shard replica for fault schedules and error reports.
func Target(shard, replica int) string {
	return fmt.Sprintf("shard%d/replica%d", shard, replica)
}

// FaultyReplica decorates a Replica with schedule-driven chaos: before
// every operation it asks the schedule for this target's next fault and
// either fails, stalls, or passes through. Kill/flake windows surface
// as faults.ErrInjected-wrapped errors, exactly like the PR-1 wrappers,
// so resilience code cannot tell scheduled chaos from the real thing.
type FaultyReplica struct {
	inner  Replica
	target string
	sched  *faults.Schedule
}

// NewFaultyReplica wraps inner; a nil schedule passes everything
// through.
func NewFaultyReplica(inner Replica, target string, sched *faults.Schedule) *FaultyReplica {
	return &FaultyReplica{inner: inner, target: target, sched: sched}
}

// fault draws the next decision and applies it; non-nil means the
// operation failed before reaching the replica.
func (f *FaultyReplica) fault(ctx context.Context, op string) error {
	if f.sched == nil {
		return nil
	}
	d := f.sched.Next(f.target)
	switch d.Kind {
	case faults.ConnError, faults.ServerError, faults.Truncate:
		return fmt.Errorf("cluster: %s %s on %s: %w", d.Kind, op, f.target, faults.ErrInjected)
	case faults.Latency:
		t := time.NewTimer(d.Latency)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// Query applies the schedule, then delegates.
func (f *FaultyReplica) Query(ctx context.Context, q string) ([]Result, error) {
	if err := f.fault(ctx, "query"); err != nil {
		return nil, err
	}
	return f.inner.Query(ctx, q)
}

// PublishEncoded applies the schedule — one draw per replica-publish —
// then delegates.
func (f *FaultyReplica) PublishEncoded(ctx context.Context, enc *cas.Encoded) (string, error) {
	if err := f.fault(ctx, "publish"); err != nil {
		return "", err
	}
	return f.inner.PublishEncoded(ctx, enc)
}

// Load applies the schedule, then delegates.
func (f *FaultyReplica) Load(ctx context.Context, id string) (*graph.Model, error) {
	if err := f.fault(ctx, "load"); err != nil {
		return nil, err
	}
	return f.inner.Load(ctx, id)
}

// List applies the schedule, then delegates.
func (f *FaultyReplica) List(ctx context.Context) ([]repo.Metadata, error) {
	if err := f.fault(ctx, "list"); err != nil {
		return nil, err
	}
	return f.inner.List(ctx)
}

// Delete applies the schedule, then delegates.
func (f *FaultyReplica) Delete(ctx context.Context, id string) error {
	if err := f.fault(ctx, "delete"); err != nil {
		return err
	}
	return f.inner.Delete(ctx, id)
}

// Rebuild passes through untouched: it is the recovery path, and a
// schedule that killed it would only re-test the fault paths above.
func (f *FaultyReplica) Rebuild(ctx context.Context) error { return f.inner.Rebuild(ctx) }
