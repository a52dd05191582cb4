// Package repo implements the bare-bone DNN model repository Sommelier
// interposes on (§2.1): publish-by-name, load-by-URL, nothing else. The
// store is either directory-backed (the TF-Hub stand-in) or purely
// in-memory for experiments that index thousands of models.
//
// Underneath the unchanged Publish/Load/Delete surface, models live in a
// content-addressed chunk store (internal/cas): a publish encodes the
// model into a manifest of SHA-256 chunk references — deduplicating
// tensors shared with an already-published base and delta-encoding
// sparse edits — a load lazily hydrates from chunks, and a delete
// releases refcounts so only chunks nothing else shares are reclaimed.
package repo

import (
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"sommelier/internal/cas"
	"sommelier/internal/graph"
)

// ErrNotFound is wrapped by Load errors for unknown model IDs, so
// callers (the hub server in particular) can tell a missing model from
// a damaged one.
var ErrNotFound = errors.New("model not found")

// ErrDamaged is wrapped by Load errors when a model is known but its
// stored form cannot be reconstructed — a corrupt or missing chunk,
// never an unknown ID.
var ErrDamaged = errors.New("model damaged")

// Metadata is the minimal record the bare-bone repository keeps per
// model: identity and free-form annotations. Deliberately no accuracy or
// resource data — providing those is Sommelier's job.
type Metadata struct {
	ID      string
	Name    string
	Version string
	Task    graph.TaskKind
	// Series groups models derived from a common basis (BiT,
	// EfficientNet, ...), mirroring TF-Hub collections.
	Series string
	// Annotations carries optional designer-provided notes (§5.5).
	Annotations map[string]string
}

// Store is the bare-bone repository surface (§2.1) every layer above
// programs against — the engine, the hub server, the fault-injecting
// wrapper — declared exactly once and named directly (the root
// package's sommelier.Store alias is the one other spelling).
// *Repository implements it, as do faults.FlakyStore and hub-side
// stand-ins. IDs follow the repository convention (IDFor):
// name@version.
type Store interface {
	Publish(m *graph.Model) (string, error)
	Load(id string) (*graph.Model, error)
	Delete(id string) error
	List() []Metadata
	Metadata(id string) (Metadata, bool)
	Len() int
}

// Repository stores models over a content-addressed chunk store. All
// methods are safe for concurrent use.
type Repository struct {
	dir    string     // empty for in-memory repositories
	chunks *cas.Store // refcounted chunk store; has its own lock

	mu        sync.RWMutex
	meta      map[string]Metadata      // guarded by mu
	manifests map[string]*cas.Manifest // guarded by mu; authoritative model records
	models    map[string]*graph.Model  // guarded by mu; hydration cache
	order     []string                 // guarded by mu
	swept     []string                 // guarded by mu; files Open discarded, for inspection
}

// NewInMemory returns a repository that keeps models in memory only.
func NewInMemory() *Repository {
	return &Repository{
		chunks:    cas.NewMemory(),
		meta:      make(map[string]Metadata),
		manifests: make(map[string]*cas.Manifest),
		models:    make(map[string]*graph.Model),
	}
}

// Open returns a directory-backed repository. The directory is created
// if missing. Layout: one binary manifest file per model plus a chunks/
// tree holding the content-addressed tensor segments. Repository files
// that cannot be used — a torn manifest, chunks no manifest references
// — are swept with a logged warning rather than failing the open: one
// damaged file must not take the repository down. A directory written
// by a build that kept JSON manifests (*.manifest.json) is refused
// whole, before anything is touched: its manifests are not torn, and
// sweeping them would sweep every chunk with them. Any other file in
// the directory is not the repository's and is left alone.
func Open(dir string) (*Repository, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("repo: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("repo: %w", err)
	}
	var manifestFiles []string
	for _, e := range entries {
		switch {
		case e.IsDir():
		case strings.HasSuffix(e.Name(), jsonManifestSuffix):
			return nil, fmt.Errorf("repo: open %s: %s is a JSON manifest (format 1), which this build does not read; nothing was removed",
				dir, e.Name())
		case strings.HasSuffix(e.Name(), manifestSuffix):
			manifestFiles = append(manifestFiles, e.Name())
		}
	}
	sort.Strings(manifestFiles)
	chunks, err := cas.OpenDir(filepath.Join(dir, "chunks"))
	if err != nil {
		return nil, fmt.Errorf("repo: %w", err)
	}
	r := NewInMemory()
	r.dir = dir
	r.chunks = chunks
	for _, name := range manifestFiles {
		id := strings.TrimSuffix(name, manifestSuffix)
		man, err := readManifestFile(filepath.Join(dir, name))
		if err == nil {
			if missing := cas.Missing(man, chunks.Has); len(missing) > 0 {
				err = fmt.Errorf("%d referenced chunks missing", len(missing))
			}
		}
		if err != nil {
			r.sweepFile(name, err)
			continue
		}
		if err := chunks.AddRefs(man.ChunkRefs()); err != nil {
			r.sweepFile(name, err)
			continue
		}
		r.meta[id] = metadataOf(man)
		r.manifests[id] = man
		r.order = append(r.order, id)
	}
	if orphans := chunks.Sweep(); len(orphans) > 0 {
		log.Printf("repo: open %s: swept %d unreferenced chunks", dir, len(orphans))
		r.swept = append(r.swept, orphans...)
	}
	sort.Strings(r.order)
	return r, nil
}

// manifestSuffix names a model's manifest file; jsonManifestSuffix
// named it while manifests were JSON.
const (
	manifestSuffix     = ".manifest"
	jsonManifestSuffix = ".manifest.json"
)

// sweepFile removes an undecodable repository file, logging why. Only
// called from Open, before the repository is shared.
func (r *Repository) sweepFile(name string, cause error) {
	log.Printf("repo: open %s: sweeping %s: %v", r.dir, name, cause)
	_ = os.Remove(filepath.Join(r.dir, name))
	r.mu.Lock()
	r.swept = append(r.swept, name)
	r.mu.Unlock()
}

// SweptFiles returns the names of files Open discarded as undecodable,
// plus addresses of orphaned chunks it collected.
func (r *Repository) SweptFiles() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.swept...)
}

func metadataOf(man *cas.Manifest) Metadata {
	md := Metadata{ID: man.ID(), Name: man.Name, Version: man.Version, Task: man.Task}
	if man.Metadata != nil {
		md.Series = man.Metadata["series"]
		md.Annotations = man.Metadata
	}
	return md
}

// IDFor returns the repository ID Publish would assign to the model:
// name@version. Callers use it to ask about a model's slot before
// publishing (e.g. "would this publish overwrite something?").
func IDFor(m *graph.Model) string { return m.Name + "@" + m.Version }

// Publish stores a model and returns its repository ID (name@version).
// Publishing an existing ID overwrites it, matching hub semantics of
// re-pushing a version.
//
// The model is chunked against its base — the already-published model
// its metadata names under "base" or "transferred-from" — so a
// fine-tuned variant stores only the tensors (or sparse deltas) that
// differ. Encoding runs outside the repository lock; only the final
// commit of the manifest is serialized.
func (r *Repository) Publish(m *graph.Model) (string, error) {
	id, _, err := r.PublishIdentified(m)
	return id, err
}

// PublishIdentified is Publish that also returns the tensor identity of
// the manifest m was encoded to: m's identity, for the caller to index
// m with.
func (r *Repository) PublishIdentified(m *graph.Model) (string, cas.Identity, error) {
	enc, err := r.Encode(m)
	if err != nil {
		return "", nil, err
	}
	id, err := r.PublishEncoded(enc)
	if err != nil {
		return "", nil, err
	}
	return id, enc.Manifest.Identity(), nil
}

// Encode chunks a model for publication, resolving its base model for
// dedup/delta encoding. Pure CPU plus at most one base Load; callers
// that publish the same model to many stores (cluster replication)
// encode once and hand the result to each PublishEncoded.
func (r *Repository) Encode(m *graph.Model) (*cas.Encoded, error) {
	baseID, base := r.resolveBase(m)
	enc, err := cas.Encode(m, baseID, base, 0)
	if err != nil {
		return nil, fmt.Errorf("repo: refusing invalid model: %w", err)
	}
	return enc, nil
}

// resolveBase finds the published model a new model's metadata names as
// its basis ("base" wins over "transferred-from"; values may be an exact
// id or a bare name, where the most recently published version wins).
// Returns ("", nil) when there is no resolvable base — dedup then falls
// back to content addressing alone.
func (r *Repository) resolveBase(m *graph.Model) (string, *graph.Model) {
	ref := m.Metadata["base"]
	if ref == "" {
		ref = m.Metadata["transferred-from"]
	}
	if ref == "" || ref == m.Name {
		return "", nil
	}
	id := r.lookupID(ref)
	if id == "" || id == IDFor(m) {
		return "", nil
	}
	base, err := r.Load(id)
	if err != nil {
		return "", nil
	}
	return id, base
}

// lookupID resolves a base reference to a stored ID: exact id first,
// else the most recently published version of the named model.
func (r *Repository) lookupID(ref string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if _, ok := r.meta[ref]; ok {
		return ref
	}
	for i := len(r.order) - 1; i >= 0; i-- {
		if r.meta[r.order[i]].Name == ref {
			return r.order[i]
		}
	}
	return ""
}

// PublishEncoded commits an already-encoded model: chunks first (each
// idempotent and crash-safe; an interrupted publish leaves only
// orphaned chunks for the next Open to sweep), then the manifest file,
// then the in-memory commit that flips refcounts. Returns the model ID.
func (r *Repository) PublishEncoded(enc *cas.Encoded) (string, error) {
	for _, h := range sortedChunkKeys(enc.Chunks) {
		if err := r.chunks.Put(h, enc.Chunks[h]); err != nil {
			return "", fmt.Errorf("repo: publishing %s: %w", enc.Manifest.ID(), err)
		}
	}
	return r.commit(enc)
}

// commit is a publish once every chunk it references is stored: the
// manifest file, then the in-memory commit. enc.Chunks is only the
// resupply for a chunk a racing delete collects.
func (r *Repository) commit(enc *cas.Encoded) (string, error) {
	id := enc.Manifest.ID()
	if r.dir != "" {
		if err := writeManifestFile(r.manifestPath(id), enc.Manifest); err != nil {
			return "", fmt.Errorf("repo: publishing %s: %w", id, err)
		}
	}
	refs := enc.Manifest.ChunkRefs()
	// A chunk is unreferenced between Put and AddRefs, so a racing
	// Delete of a model sharing it can GC it out from under this
	// publish. AddRefs is all-or-nothing; on that race, re-put the
	// collected chunks from the encoding and retry. A chunk another
	// publish has put back in the meantime needs nothing from this one.
	for attempt := 0; ; attempt++ {
		if err := r.commitManifest(enc, refs); err == nil {
			return id, nil
		} else if attempt >= 8 || !errors.Is(err, cas.ErrMissingChunk) {
			return "", fmt.Errorf("repo: publishing %s: %w", id, err)
		}
		for _, h := range refs {
			if r.chunks.Has(h) {
				continue
			}
			data, ok := enc.Chunks[h]
			if !ok {
				return "", fmt.Errorf("repo: publishing %s: %w and the encoding cannot resupply it", id, cas.ErrMissingChunk)
			}
			if err := r.chunks.Put(h, data); err != nil {
				return "", fmt.Errorf("repo: publishing %s: %w", id, err)
			}
		}
	}
}

// commitManifest is the serialized tail of a publish: reference every
// chunk, release the overwritten manifest's references, and flip the
// in-memory records.
func (r *Repository) commitManifest(enc *cas.Encoded, refs []string) error {
	id := enc.Manifest.ID()
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.chunks.AddRefs(refs); err != nil {
		return err
	}
	if old, exists := r.manifests[id]; exists {
		r.chunks.Release(old.ChunkRefs())
	} else {
		r.order = append(r.order, id)
	}
	r.meta[id] = metadataOf(enc.Manifest)
	r.manifests[id] = enc.Manifest
	if enc.Model != nil {
		r.models[id] = enc.Model
	} else {
		delete(r.models, id)
	}
	return nil
}

// PublishManifest commits a model received as manifest + negotiated
// chunks (the hub's chunked upload path). Every referenced chunk must
// already be present — MissingChunks names any that are not — and the
// manifest must hydrate to a valid model, so a malformed upload is
// rejected before it becomes visible. It returns the hydrated model it
// stored.
func (r *Repository) PublishManifest(man *cas.Manifest) (*graph.Model, error) {
	if err := man.Validate(); err != nil {
		return nil, fmt.Errorf("repo: %w", err)
	}
	if missing := cas.Missing(man, r.chunks.Has); len(missing) > 0 {
		return nil, fmt.Errorf("repo: publishing %s: %d referenced chunks not uploaded: %w",
			man.ID(), len(missing), cas.ErrMissingChunk)
	}
	// Record chunk bytes as hydration fetches them, so the commit can
	// resupply any chunk a racing delete GCs before it is referenced.
	// They were read from this store, so nothing is put again: the
	// commit starts at the manifest.
	chunks := make(map[string][]byte)
	m, err := cas.Hydrate(man, func(h string) ([]byte, error) {
		data, err := r.chunks.Get(h)
		if err == nil {
			chunks[h] = data
		}
		return data, err
	})
	if err != nil {
		return nil, fmt.Errorf("repo: publishing %s: %w", man.ID(), err)
	}
	if _, err := r.commit(&cas.Encoded{Model: m, Manifest: man, Chunks: chunks}); err != nil {
		return nil, err
	}
	return m, nil
}

// Load returns the model stored under id, hydrating it from chunks on
// first use and caching the result.
func (r *Repository) Load(id string) (*graph.Model, error) {
	r.mu.RLock()
	m, ok := r.models[id]
	var man *cas.Manifest
	if !ok {
		man = r.manifests[id]
	}
	r.mu.RUnlock()
	if ok {
		return m, nil
	}
	if man == nil {
		return nil, fmt.Errorf("repo: model %q: %w", id, ErrNotFound)
	}
	m, err := cas.Hydrate(man, r.chunks.Get)
	if err != nil {
		return nil, fmt.Errorf("repo: model %q: %w: %w", id, ErrDamaged, err)
	}
	r.mu.Lock()
	// Only cache if the model is still current; a racing overwrite or
	// delete wins.
	if r.manifests[id] == man {
		r.models[id] = m
	}
	r.mu.Unlock()
	return m, nil
}

// Manifest returns the stored chunk manifest for a model.
func (r *Repository) Manifest(id string) (*cas.Manifest, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	man, ok := r.manifests[id]
	return man, ok
}

// Delete removes a model and releases its chunk references; chunks
// shared with other models survive, exclusive ones are reclaimed. An
// unknown ID is an error wrapping ErrNotFound, but any stray on-disk
// file for it is removed first, so a repository whose memory and disk
// state disagree converges on deletion.
func (r *Repository) Delete(id string) error {
	r.mu.Lock()
	_, known := r.manifests[id]
	refs := r.forgetLocked(id)
	r.mu.Unlock()
	if r.dir != "" {
		if err := os.Remove(r.manifestPath(id)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("repo: %w", err)
		}
	}
	if !known {
		return fmt.Errorf("repo: delete %q: %w", id, ErrNotFound)
	}
	r.chunks.Release(refs)
	return nil
}

// forgetLocked drops a model's in-memory records and returns the chunk
// references the caller must release; nil for an unknown ID. Callers
// hold mu.
func (r *Repository) forgetLocked(id string) []string {
	man, ok := r.manifests[id]
	if !ok {
		return nil
	}
	delete(r.meta, id)
	delete(r.manifests, id)
	delete(r.models, id)
	for i, o := range r.order {
		if o == id {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	return man.ChunkRefs()
}

// List returns metadata for every stored model in publication order.
func (r *Repository) List() []Metadata {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Metadata, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, r.meta[id])
	}
	return out
}

// Metadata returns the record for one model.
func (r *Repository) Metadata(id string) (Metadata, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	md, ok := r.meta[id]
	return md, ok
}

// Len returns the number of stored models.
func (r *Repository) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.meta)
}

// HasChunk reports whether the repository's chunk store holds a chunk —
// the transfer-negotiation primitive ("do I need to send this?").
func (r *Repository) HasChunk(hash string) bool { return r.chunks.Has(hash) }

// GetChunk returns a chunk's verified bytes.
func (r *Repository) GetChunk(hash string) ([]byte, error) { return r.chunks.Get(hash) }

// PutChunk stores a chunk ahead of a manifest publish, after checking
// its hash. It copies or writes data and never retains it. The chunk is
// unreferenced until a manifest claims it; Open sweeps unclaimed ones.
func (r *Repository) PutChunk(hash string, data []byte) error { return r.chunks.Put(hash, data) }

// MissingChunks returns the manifest's chunk references this repository
// does not hold, sorted.
func (r *Repository) MissingChunks(man *cas.Manifest) []string {
	return cas.Missing(man, r.chunks.Has)
}

// CASStats reports the underlying chunk store's population and dedup
// counters.
func (r *Repository) CASStats() cas.Stats { return r.chunks.Stats() }

func sortedChunkKeys(chunks map[string][]byte) []string {
	keys := make([]string, 0, len(chunks))
	for h := range chunks {
		keys = append(keys, h)
	}
	sort.Strings(keys)
	return keys
}

func (r *Repository) manifestPath(id string) string {
	return filepath.Join(r.dir, safeID(id)+manifestSuffix)
}

// safeID keeps '@' in file names but sanitizes path separators.
func safeID(id string) string {
	return strings.ReplaceAll(id, string(filepath.Separator), "_")
}

func readManifestFile(path string) (*cas.Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return cas.DecodeManifest(f)
}

// writeManifestFile writes a manifest via temp file + rename so a crash
// mid-publish can never leave a torn manifest for the next Open.
func writeManifestFile(path string, man *cas.Manifest) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".manifest-*")
	if err != nil {
		return err
	}
	if err := cas.EncodeManifest(tmp, man); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
