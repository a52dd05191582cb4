package cluster

import (
	"context"
	"errors"
	"fmt"

	"sommelier/internal/cas"
	"sommelier/internal/graph"
	"sommelier/internal/hub"
	"sommelier/internal/repo"
)

// HTTPReplica adapts a hub.Client into a shard Replica, so a
// coordinator can front remote sommhub shard processes. The client
// brings its own resilience (per-attempt timeouts, retries, circuit
// breaker); the coordinator's failover sits on top of it.
type HTTPReplica struct {
	client *hub.Client
}

// NewHTTPReplica wraps a hub client.
func NewHTTPReplica(c *hub.Client) *HTTPReplica { return &HTTPReplica{client: c} }

// Query runs the query on the remote shard's GET /v1/query. A refusal
// the hub codes CodeUnknownReference — a catalog that does not hold this
// query's reference model — is an empty contribution, not a failure.
// Every other refusal, and every other status (a bare 400 that says
// nothing about the catalog, a proxy's 401/403, a wrong path's 404, a
// throttled shard's 429), is an error the coordinator fails over on.
func (r *HTTPReplica) Query(ctx context.Context, q string) ([]Result, error) {
	res, err := r.client.Query(ctx, q)
	if unknownReference(err) {
		return nil, nil
	}
	return res, err
}

// QueryBatch runs the batch in one POST /v1/query round trip, with
// Query's mapping per slot: an unknown-reference refusal is an empty
// contribution, and any other refusal is returned in that query's slot
// so the coordinator can retry just that query on the next replica.
func (r *HTTPReplica) QueryBatch(ctx context.Context, qs []string) ([][]Result, []error, error) {
	results, qerrs, err := r.client.QueryBatch(ctx, qs)
	if err != nil {
		return nil, nil, err
	}
	errs := make([]error, len(qs))
	for i, qe := range qerrs {
		if qe != nil && !unknownReference(qe) {
			errs[i] = qe
		}
	}
	return results, errs, nil
}

// unknownReference reports whether err is a shard's refusal coded
// CodeUnknownReference.
func unknownReference(err error) bool {
	var qe *hub.QueryError
	return errors.As(err, &qe) && qe.Code == hub.CodeUnknownReference
}

// PublishEncoded uploads the model through the hub's chunk-negotiation
// protocol, shipping only the chunks the remote shard is missing. The
// hub client itself falls back to a whole-model upload against hubs
// that cannot negotiate, so this never fails merely for lack of
// protocol support.
func (r *HTTPReplica) PublishEncoded(ctx context.Context, enc *cas.Encoded) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	id, _, err := r.client.PublishEncoded(enc)
	return id, err
}

// Load fetches a model, mapping the remote 404 onto repo.ErrNotFound
// so cluster fallback logic treats local and remote replicas alike.
func (r *HTTPReplica) Load(ctx context.Context, id string) (*graph.Model, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m, err := r.client.Load(id)
	if err != nil {
		var se *hub.StatusError
		if errors.As(err, &se) && se.Code == 404 {
			return nil, fmt.Errorf("cluster: remote load %s: %w", id, repo.ErrNotFound)
		}
		return nil, err
	}
	return m, nil
}

// List returns the remote shard's metadata.
func (r *HTTPReplica) List(ctx context.Context) ([]repo.Metadata, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return r.client.List()
}

// Delete removes a model, mapping the remote 404 onto repo.ErrNotFound.
func (r *HTTPReplica) Delete(ctx context.Context, id string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := r.client.Delete(id); err != nil {
		var se *hub.StatusError
		if errors.As(err, &se) && se.Code == 404 {
			return fmt.Errorf("cluster: remote delete %s: %w", id, repo.ErrNotFound)
		}
		return err
	}
	return nil
}

// Rebuild is a no-op for remote replicas: a sommhub shard running with
// -index reindexes every accepted upload itself, which is the same
// invariant Rebuild restores for in-process replicas.
func (r *HTTPReplica) Rebuild(ctx context.Context) error { return ctx.Err() }
