package sommelier

import (
	"context"
	"sync/atomic"

	"sommelier/internal/cas"
	"sommelier/internal/graph"
	"sommelier/internal/obs"
	"sommelier/internal/repo"
)

// EngineReplica is one in-process shard replica: a private in-memory
// store with an engine over it. It has the method set of a cluster
// replica (internal/cluster's Replica). Replicas of the same shard,
// built with the same seed and fed the same publishes, produce
// byte-identical query answers — which is what makes replica failover
// invisible to clients.
type EngineReplica struct {
	store *repo.Repository
	eng   *Engine
	// writes counts PublishEncoded and Delete calls that have returned.
	writes atomic.Uint64
}

// NewEngineReplica builds an empty replica. o may be nil; a shared
// observer folds the replica's engine metrics into the cluster
// snapshot.
func NewEngineReplica(seed uint64, validationSize int, o *obs.Observer) (*EngineReplica, error) {
	store := repo.NewInMemory()
	eng, err := NewEngine(store, WithSeed(seed), WithValidationSize(validationSize), WithObserver(o))
	if err != nil {
		return nil, err
	}
	return &EngineReplica{store: store, eng: eng}, nil
}

// Engine exposes the replica's engine (tests assert against it).
func (r *EngineReplica) Engine() *Engine { return r.eng }

// QueryBatch answers one query through the engine's single-query path
// and more through its batched path — one catalog snapshot for all
// queries. A query whose reference the replica does not hold fails in
// its slot, wrapping ErrUnknownReference, so a coordinator learns that
// this replica does not hold the reference.
func (r *EngineReplica) QueryBatch(ctx context.Context, qs []string) ([][]Result, []error, error) {
	if len(qs) == 1 {
		rs, err := r.eng.QueryContext(ctx, qs[0])
		return [][]Result{rs}, []error{err}, nil
	}
	results, errs := r.eng.QueryBatchContext(ctx, qs)
	return results, errs, nil
}

// Generation counts the replica's writes: every write to the replica's
// store and index goes through PublishEncoded or Delete.
func (r *EngineReplica) Generation() (uint64, bool) { return r.writes.Load(), true }

// PublishEncoded stores an already-chunked model and indexes enc.Model
// (which cas.Encode sets) under the engine's write rule, Accept, with
// the manifest's tensor identity. The replica's store deduplicates against chunks it already holds —
// replicating a fine-tuned series costs each replica only the series'
// unique tensors — and the engine skips the observation work a variant
// shares with models it has seen.
func (r *EngineReplica) PublishEncoded(ctx context.Context, enc *cas.Encoded) (string, error) {
	defer r.writes.Add(1)
	id := enc.Manifest.ID()
	err := r.eng.Accept(ctx, id, func() (*graph.Model, cas.Identity, error) {
		if _, err := r.store.PublishEncoded(enc); err != nil {
			return nil, nil, err
		}
		return enc.Model, enc.Manifest.Identity(), nil
	})
	if err != nil {
		return "", err
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
// its entry, because the catalog has no removal — the same trade-off
// the hub server makes.
func (r *EngineReplica) Delete(ctx context.Context, id string) error {
	defer r.writes.Add(1)
	if err := ctx.Err(); err != nil {
		return err
	}
	return r.store.Delete(id)
}
