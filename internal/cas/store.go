// Package cas implements the content-addressed chunk store beneath the
// model repository (NeurStore direction, ROADMAP item 3): tensor data is
// cut into SHA-256-addressed segments (internal/chunk), models are
// recorded as manifests of chunk references with optional per-tensor
// deltas against a named base model, and chunks are refcounted so
// deleting a model reclaims exactly the segments nothing else shares.
//
// The package is deterministic throughout: addresses are content
// hashes, chunk lists are in tensor offset order, and every listing is
// sorted — a prerequisite for the byte-exact replication invariants the
// cluster chaos suite asserts.
package cas

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"sommelier/internal/chunk"
)

// ErrMissingChunk is wrapped by Get/AddRefs errors for chunks the store
// does not hold, so callers (the hub negotiation in particular) can
// tell "send me that chunk" from a damaged store.
var ErrMissingChunk = errors.New("cas: missing chunk")

// ErrCorruptChunk is wrapped by Get errors when a chunk's stored bytes
// no longer match its address — bit rot or a tampered file, never a
// missing model.
var ErrCorruptChunk = errors.New("cas: corrupt chunk")

// Stats summarises a store's population and dedup effectiveness.
type Stats struct {
	// Chunks is the number of distinct chunks held.
	Chunks int `json:"chunks"`
	// Bytes is the total payload held (deduplicated).
	Bytes int64 `json:"bytes"`
	// Puts counts Put calls; DedupHits counts the subset that found
	// their content already present and wrote nothing.
	Puts      int64 `json:"puts"`
	DedupHits int64 `json:"dedup_hits"`
	// PutBytes is the payload offered to Put (pre-dedup); Bytes/PutBytes
	// is the storage dedup ratio's inverse.
	PutBytes int64 `json:"put_bytes"`
}

// Store is a refcounted, content-addressed chunk store, either purely
// in-memory or directory-backed (chunks as files, fanned out by hash
// prefix, written temp-file + rename so a crash can never leave a torn
// chunk). All methods are safe for concurrent use.
type Store struct {
	dir string // empty for in-memory stores

	mu    sync.Mutex
	data  map[string][]byte // guarded by mu; nil in directory mode
	sizes map[string]int64  // guarded by mu; chunk → payload size
	refs  map[string]int    // guarded by mu
	stats Stats             // guarded by mu
}

// NewMemory returns an in-memory chunk store.
func NewMemory() *Store {
	return &Store{
		data:  make(map[string][]byte),
		sizes: make(map[string]int64),
		refs:  make(map[string]int),
	}
}

// OpenDir returns a directory-backed store rooted at dir (created if
// missing), discovering chunks already on disk. Discovered chunks start
// at refcount zero; the repository re-establishes references from its
// manifests and sweeps what remains unreferenced.
func OpenDir(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cas: %w", err)
	}
	s := &Store{
		dir:   dir,
		sizes: make(map[string]int64),
		refs:  make(map[string]int),
	}
	fans, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("cas: %w", err)
	}
	for _, fan := range fans {
		if !fan.IsDir() || len(fan.Name()) != 2 {
			continue
		}
		entries, err := os.ReadDir(filepath.Join(dir, fan.Name()))
		if err != nil {
			return nil, fmt.Errorf("cas: %w", err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !chunk.ValidHash(name) || !strings.HasPrefix(name, fan.Name()) {
				continue
			}
			info, err := e.Info()
			if err != nil {
				return nil, fmt.Errorf("cas: %w", err)
			}
			s.sizes[name] = info.Size()
			s.stats.Chunks++
			s.stats.Bytes += info.Size()
		}
	}
	return s, nil
}

// path fans chunks out by hash prefix; the file keeps the full address
// as its name so a directory listing is self-describing.
func (s *Store) path(hash string) string {
	return filepath.Join(s.dir, hash[:2], hash)
}

// Has reports whether the store holds the chunk.
func (s *Store) Has(hash string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.sizes[hash]
	return ok
}

// Put stores a chunk under its address, verifying the content actually
// hashes to it. Storing a chunk the store already holds is a no-op
// (counted as a dedup hit). Put does not reference the chunk — a chunk
// with no references is an orphan until AddRefs claims it or Sweep
// collects it, which is exactly the crash-safety window a publish needs.
func (s *Store) Put(hash string, data []byte) error {
	if got := chunk.Hash(data); got != hash {
		return fmt.Errorf("cas: put %s: content hashes to %s", short(hash), short(got))
	}
	s.mu.Lock()
	s.stats.Puts++
	s.stats.PutBytes += int64(len(data))
	if _, ok := s.sizes[hash]; ok {
		s.stats.DedupHits++
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()

	if s.dir != "" {
		// Disk I/O outside the lock; last writer wins and writes are
		// idempotent by content addressing.
		if err := writeFileAtomic(s.path(hash), data); err != nil {
			return fmt.Errorf("cas: put %s: %w", short(hash), err)
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.sizes[hash]; ok {
		s.stats.DedupHits++ // racing writer beat us; the content is identical
		return nil
	}
	if s.data != nil {
		s.data[hash] = append([]byte(nil), data...)
	}
	s.sizes[hash] = int64(len(data))
	s.stats.Chunks++
	s.stats.Bytes += int64(len(data))
	return nil
}

// Get returns a chunk's bytes. A directory store reads a fresh buffer
// and verifies it against the address, so silent corruption surfaces as
// ErrCorruptChunk rather than as a wrong-weights model. A memory store
// lends the slice it holds, capacity clipped so an append reallocates:
// the result is read-only, and a caller that needs to edit it copies it
// first. Put copied the bytes in after checking their hash, so nothing
// but such a write can change them.
func (s *Store) Get(hash string) ([]byte, error) {
	s.mu.Lock()
	if _, ok := s.sizes[hash]; !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("cas: get %s: %w", short(hash), ErrMissingChunk)
	}
	if s.data != nil {
		data := s.data[hash]
		s.mu.Unlock()
		return data[:len(data):len(data)], nil
	}
	s.mu.Unlock()
	data, err := os.ReadFile(s.path(hash))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("cas: get %s: %w", short(hash), ErrMissingChunk)
		}
		return nil, fmt.Errorf("cas: get %s: %w", short(hash), err)
	}
	if got := chunk.Hash(data); got != hash {
		return nil, fmt.Errorf("cas: get %s: stored bytes hash to %s: %w", short(hash), short(got), ErrCorruptChunk)
	}
	return data, nil
}

// AddRefs increments the refcount of every listed chunk. Every chunk
// must already be present; a missing one fails the whole call with no
// counts changed.
func (s *Store) AddRefs(hashes []string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, h := range hashes {
		if _, ok := s.sizes[h]; !ok {
			return fmt.Errorf("cas: addref %s: %w", short(h), ErrMissingChunk)
		}
	}
	for _, h := range hashes {
		s.refs[h]++
	}
	return nil
}

// Release decrements refcounts and garbage-collects chunks that reach
// zero. Unknown chunks are ignored — Release is the cleanup path and
// must be idempotent under crashes.
func (s *Store) Release(hashes []string) {
	var dead []string
	s.mu.Lock()
	for _, h := range hashes {
		if s.refs[h] <= 0 {
			continue
		}
		s.refs[h]--
		if s.refs[h] == 0 {
			delete(s.refs, h)
			dead = append(dead, h)
			s.dropLocked(h)
		}
	}
	s.mu.Unlock()
	for _, h := range dead {
		s.removeFile(h)
	}
}

// dropLocked forgets a chunk's in-memory record. Callers hold mu.
func (s *Store) dropLocked(hash string) {
	if size, ok := s.sizes[hash]; ok {
		s.stats.Chunks--
		s.stats.Bytes -= size
	}
	delete(s.sizes, hash)
	if s.data != nil {
		delete(s.data, hash)
	}
}

func (s *Store) removeFile(hash string) {
	if s.dir == "" {
		return
	}
	_ = os.Remove(s.path(hash))
}

// Refs returns a chunk's current refcount.
func (s *Store) Refs(hash string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.refs[hash]
}

// Chunks lists every held chunk address, sorted.
func (s *Store) Chunks() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.sizes))
	for h := range s.sizes {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// Sweep removes every zero-reference chunk — the orphans a crashed
// publish leaves behind — and returns their addresses, sorted.
func (s *Store) Sweep() []string {
	var dead []string
	s.mu.Lock()
	for h := range s.sizes {
		if s.refs[h] == 0 {
			dead = append(dead, h)
		}
	}
	sort.Strings(dead)
	for _, h := range dead {
		s.dropLocked(h)
	}
	s.mu.Unlock()
	for _, h := range dead {
		s.removeFile(h)
	}
	return dead
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// short abbreviates a chunk address for error messages.
func short(hash string) string {
	if len(hash) > 12 {
		return hash[:12]
	}
	return hash
}

// writeFileAtomic writes data to path via a temp file + rename in the
// same directory, so readers never observe a torn chunk.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
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
