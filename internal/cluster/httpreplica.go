package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

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

// Query runs the query on the remote shard's GET /v1/query. A shard
// that answers 400 — what the hub returns when its querier refuses the
// query, the unknown-reference case of a catalog that does not hold
// this query's reference model — is an empty contribution, not a
// failure. Every other status (a proxy's 401/403, a wrong path's 404, a
// throttled shard's 429) is an error the coordinator fails over on.
func (r *HTTPReplica) Query(ctx context.Context, q string) ([]Result, error) {
	raw, err := r.client.Query(ctx, q)
	if err != nil {
		var se *hub.StatusError
		if errors.As(err, &se) && se.Code == http.StatusBadRequest {
			return nil, nil
		}
		return nil, err
	}
	var out []Result
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &out); err != nil {
			return nil, fmt.Errorf("cluster: decoding shard results: %w", err)
		}
	}
	return out, nil
}

// QueryBatch runs the batch in one POST /v1/query round trip. Per-query
// unknown-reference errors (the hub marks them with a machine-readable
// code) become empty contributions, exactly like Query's 400 mapping;
// any other per-query error is returned in that query's slot so the
// coordinator can retry just that query on the next replica.
func (r *HTTPReplica) QueryBatch(ctx context.Context, qs []string) ([][]Result, []error, error) {
	raws, qerrs, err := r.client.QueryBatch(ctx, qs)
	if err != nil {
		return nil, nil, err
	}
	results := make([][]Result, len(qs))
	errs := make([]error, len(qs))
	for i := range qs {
		if qe := qerrs[i]; qe != nil {
			if qe.Code != hub.CodeUnknownReference {
				errs[i] = qe
			}
			continue
		}
		if len(raws[i]) > 0 {
			if err := json.Unmarshal(raws[i], &results[i]); err != nil {
				errs[i] = fmt.Errorf("cluster: decoding shard results: %w", err)
			}
		}
	}
	return results, errs, nil
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
