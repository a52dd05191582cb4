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

// QueryBackend is one shard replica's query surface. The coordinator
// sends every attempt through QueryBatch, one query or many.
//
// QueryBatch answers every query against one catalog state. results and
// errs are index-aligned with qs — exactly one of results[i]/errs[i] is
// meaningful per slot. A query whose reference this replica does not
// hold is an errs[i] wrapping query.ErrUnknownReference, which the
// coordinator reads as an empty answer from a replica that does not
// hold the reference. Any other errs[i] is retried on the next replica.
// The outer error is transport-level: the whole attempt failed and
// nothing per-query is known, so the coordinator fails the entire
// pending set over to the next replica.
//
// Generation lets the coordinator skip the replica's shard for a
// reference it did not hold: a counter that moves whenever the
// replica's catalog may have changed. Two equal readings mean no write
// to the replica was acknowledged between them. A replica that cannot
// tell returns (0, false), and its shard is asked every query.
type QueryBackend interface {
	QueryBatch(ctx context.Context, qs []string) ([][]Result, []error, error)
	Generation() (uint64, bool)
}

// Replica is one replica of one shard: the query surface plus the
// store surface the Cluster needs for placement, replication and
// repair. In-process replicas wrap an engine over a private
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

// QueryBatch draws one fault per query, in order, and sends the
// queries no fault stopped to the inner replica as one attempt. A fault
// fails only its query's slot.
func (f *FaultyReplica) QueryBatch(ctx context.Context, qs []string) ([][]Result, []error, error) {
	results := make([][]Result, len(qs))
	errs := make([]error, len(qs))
	passed := make([]int, 0, len(qs))
	for i := range qs {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if errs[i] = f.fault(ctx, "query"); errs[i] == nil {
			passed = append(passed, i)
		}
	}
	if len(passed) == 0 {
		return results, errs, nil
	}
	sub := make([]string, len(passed))
	for k, i := range passed {
		sub[k] = qs[i]
	}
	rs, es, err := replicaBatch(ctx, f.inner, sub)
	if err != nil {
		return nil, nil, err
	}
	for k, i := range passed {
		results[i], errs[i] = rs[k], es[k]
	}
	return results, errs, nil
}

// Generation reports the inner replica's generation: a faulted write
// never reaches the inner replica, so it cannot change it.
func (f *FaultyReplica) Generation() (uint64, bool) { return f.inner.Generation() }

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
