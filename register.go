package sommelier

import (
	"context"
	"errors"
	"fmt"

	"sommelier/internal/graph"
	"sommelier/internal/index"
	"sommelier/internal/repo"
)

// ErrPublishedUnindexed is wrapped by RegisterContext when the model
// reached the repository but indexing failed AND the rollback delete
// also failed: the store now holds a model the engine does not know about.
// Callers can retry with IndexAllContext (which picks up unindexed
// repository models) or delete the ID themselves.
var ErrPublishedUnindexed = errors.New("model published but not indexed")

// RegisterContext publishes the model to the repository and indexes it.
// It returns the repository ID. Canceling ctx aborts the pairwise
// analysis before anything is committed to the index; the rollback
// below then removes the published model, so a canceled Register
// leaves no trace.
//
// Publish-then-index is not atomic; RegisterContext restores the
// invariant "published implies indexed" on failure by deleting what it
// just published. The rollback is skipped when the publish overwrote a
// pre-existing ID (deleting would destroy the prior version) or when a
// concurrent writer indexed the ID first (the model is in the index —
// just not through this call).
func (e *Engine) RegisterContext(ctx context.Context, m *graph.Model) (string, error) {
	var preexisted bool
	if m != nil {
		_, preexisted = e.store.Metadata(repo.IDFor(m))
	}
	id, err := e.store.Publish(m)
	if err != nil {
		return "", err
	}
	if err := e.cat.Index(ctx, id, m); err != nil {
		if errors.Is(err, index.ErrAlreadyIndexed) {
			return "", err
		}
		if preexisted {
			return "", err
		}
		if delErr := e.store.Delete(id); delErr != nil {
			return "", fmt.Errorf("sommelier: %w: %q: indexing failed (%w) and rollback failed (%w)",
				ErrPublishedUnindexed, id, err, delErr)
		}
		return "", err
	}
	return id, nil
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
// if it is already indexed — the hook hub servers call after accepting
// an upload.
func (e *Engine) IndexModel(ctx context.Context, id string, m *graph.Model) error {
	if err := e.cat.Index(ctx, id, m); err != nil && !errors.Is(err, index.ErrAlreadyIndexed) {
		return err
	}
	return nil
}
