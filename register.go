package sommelier

import (
	"context"
	"errors"
	"fmt"

	"sommelier/internal/cas"
	"sommelier/internal/graph"
	"sommelier/internal/index"
	"sommelier/internal/repo"
)

// ErrPublishedUnindexed is wrapped by Accept (and so by RegisterContext,
// a hub's PUT and EngineReplica.PublishEncoded) when the model reached
// the repository but indexing failed AND the rollback delete also
// failed: the store now holds a model the engine does not know about.
// Callers can retry with IndexAllContext (which picks up unindexed
// repository models) or delete the ID themselves.
var ErrPublishedUnindexed = errors.New("published but not indexed")

// RegisterContext publishes the model to the repository and indexes it
// under Accept's write rule. It returns the repository ID. Canceling ctx
// aborts the pairwise analysis before anything is committed to the
// index; the rollback then removes the published model, so a canceled
// Register leaves no trace. Unlike Accept, registering an ID that is
// already indexed fails, wrapping index.ErrAlreadyIndexed.
func (e *Engine) RegisterContext(ctx context.Context, m *graph.Model) (string, error) {
	if m == nil {
		return "", errors.New("sommelier: register of a nil model")
	}
	id := repo.IDFor(m)
	err := e.accept(ctx, id, func() (*graph.Model, cas.Identity, error) {
		_, ident, err := e.publish(m)
		return m, ident, err
	})
	if err != nil {
		return "", err
	}
	return id, nil
}

// Accept is the write rule every front door shares — RegisterContext,
// a hub's model PUT (Accept is the hub.Indexer hook) and an in-process
// cluster replica's PublishEncoded: publish, index, and on an index
// failure delete the upload, so that "published implies indexed" holds.
// publish stores the model under id and returns it with its tensor
// identity (nil when the store reports none), taken with the model
// from the manifest it was encoded to or hydrated from — never looked
// up again by ID, which a concurrent overwrite could change. A publish
// error is returned as it is, with nothing rolled back.
//
// The rollback is skipped when the publish overwrote a pre-existing ID
// (deleting would destroy the prior version, which stays queryable
// under its old index entry) or when the ID was already indexed, which
// Accept treats as success: re-publishing a version is legal hub
// behaviour. A failed rollback wraps ErrPublishedUnindexed.
func (e *Engine) Accept(ctx context.Context, id string, publish func() (*graph.Model, cas.Identity, error)) error {
	if err := e.accept(ctx, id, publish); !errors.Is(err, index.ErrAlreadyIndexed) {
		return err
	}
	return nil
}

// accept is Accept that reports an already indexed ID as
// index.ErrAlreadyIndexed. It is the one place that decides a rollback.
func (e *Engine) accept(ctx context.Context, id string, publish func() (*graph.Model, cas.Identity, error)) error {
	_, existed := e.store.Metadata(id)
	m, ident, err := publish()
	if err != nil {
		return err
	}
	err = e.cat.IndexEntry(ctx, index.Entry{ID: id, Model: m, Identity: ident})
	if err == nil || existed || errors.Is(err, index.ErrAlreadyIndexed) {
		return err
	}
	if delErr := e.store.Delete(id); delErr != nil {
		return fmt.Errorf("%w; rollback failed, %q is %w: %w", err, id, ErrPublishedUnindexed, delErr)
	}
	return err
}

// identityPublisher is a Store that reports the tensor identity of the
// manifest a model was encoded to; *repo.Repository is one.
type identityPublisher interface {
	PublishIdentified(m *graph.Model) (string, cas.Identity, error)
}

// publish stores m and returns its ID, and m's tensor identity when the
// store reports one.
func (e *Engine) publish(m *graph.Model) (string, cas.Identity, error) {
	if p, ok := e.store.(identityPublisher); ok {
		return p.PublishIdentified(m)
	}
	id, err := e.store.Publish(m)
	return id, nil, err
}

// RegisterAnnotatedContext publishes and indexes a model using
// designer-supplied equivalence annotations (§5.5, "Supporting
// developer annotations") instead of running the pairwise analysis
// against the annotated models: levels maps already-indexed model IDs
// to the functional-equivalence level the designer declares for them
// relative to this model. The declared levels are recorded
// symmetrically and commit atomically: a bad level or an unindexed
// reference applies no annotation edge at all. Models NOT covered by
// an annotation are still analyzed normally — annotations replace only
// the measurements they actually provide.
func (e *Engine) RegisterAnnotatedContext(ctx context.Context, m *graph.Model, levels map[string]float64) (string, error) {
	for id, lvl := range levels {
		if lvl < 0 || lvl > 1 {
			return "", fmt.Errorf("sommelier: annotation level %g for %q outside [0,1]", lvl, id)
		}
	}
	id, err := e.RegisterContext(ctx, m)
	if err != nil {
		return "", err
	}
	if err := e.cat.Annotate(id, levels); err != nil {
		return "", fmt.Errorf("sommelier: annotation references unindexed model: %w", err)
	}
	return id, nil
}

// IndexAllContext indexes every repository model not yet indexed, in
// repository order, fanning the pairwise analysis out across the
// engine's index workers. Models indexed concurrently by other writers
// are skipped, not errors. It returns on the first analysis or commit
// failure; models committed before the failure stay indexed.
//
// Canceling ctx drains the worker pool mid-batch and returns ctx.Err()
// with nothing committed: the batch commits only after its analysis
// completes.
func (e *Engine) IndexAllContext(ctx context.Context) error {
	snap := e.cat.Snapshot()
	var entries []index.Entry
	for _, md := range e.store.List() {
		if snap.Contains(md.ID) {
			continue
		}
		m, err := e.store.Load(md.ID)
		if err != nil {
			return err
		}
		entries = append(entries, index.Entry{ID: md.ID, Model: m})
	}
	_, err := e.cat.IndexBatch(ctx, entries)
	return err
}

// IndexModel indexes an already published model, skipping it silently
// if it is already indexed.
func (e *Engine) IndexModel(ctx context.Context, id string, m *graph.Model) error {
	err := e.cat.IndexEntry(ctx, index.Entry{ID: id, Model: m})
	if err != nil && !errors.Is(err, index.ErrAlreadyIndexed) {
		return err
	}
	return nil
}
