package cluster

import (
	"context"
	"errors"
	"fmt"

	"sommelier/internal/cas"
	"sommelier/internal/graph"
	"sommelier/internal/hub"
	"sommelier/internal/query"
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
	if errors.Is(err, query.ErrUnknownReference) {
		return nil, nil
	}
	return res, err
}

// QueryBatch runs a one-query attempt as Query's GET and a larger one
// in one POST /v1/query round trip. Every refusal is returned in its
// query's slot — one coded CodeUnknownReference matches
// query.ErrUnknownReference — so the coordinator can tell a shard that
// does not hold the reference, and retry any other refusal on the next
// replica.
func (r *HTTPReplica) QueryBatch(ctx context.Context, qs []string) ([][]Result, []error, error) {
	if len(qs) == 1 {
		res, err := r.client.Query(ctx, qs[0])
		return [][]Result{res}, []error{err}, nil
	}
	results, qerrs, err := r.client.QueryBatch(ctx, qs)
	if err != nil {
		return nil, nil, err
	}
	errs := make([]error, len(qs))
	for i, qe := range qerrs {
		if qe != nil {
			errs[i] = qe
		}
	}
	return results, errs, nil
}

// Generation is the hub client's: a write made through this replica
// moves it with the write's ack, and one whose ack never arrived makes
// it unknown until the hub shows a later change; a write made by anyone
// else moves it with the first answer the hub gives after that write.
func (r *HTTPReplica) Generation() (uint64, bool) { return r.client.Generation() }

// PublishEncoded uploads the model through the hub's chunk-negotiation
// protocol, shipping only the chunks the remote shard is missing. The
// hub client itself sends the encoding as one pack to a hub that
// cannot negotiate, so this never fails merely for lack of protocol
// support.
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
