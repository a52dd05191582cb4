package catalog

import (
	"maps"

	"sommelier/internal/index"
	"sommelier/internal/resource"
)

// Snapshot is an immutable point-in-time view of the catalog: the
// semantic index view, a copy of the profile table, and the
// default-reference table.
// A query (or Explain) grabs one Snapshot and runs every stage of the
// §5.4 pipeline against it, so its answers are internally consistent
// even while writers commit new models — and it takes no locks at all.
type Snapshot struct {
	sem      *index.SemanticView
	profiles map[string]resource.Profile
	refs     map[string]string
}

// Snapshot returns the current published snapshot. The result is
// immutable and safe to use indefinitely from any goroutine.
func (c *Catalog) Snapshot() *Snapshot { return c.snap.Load() }

// publishLocked builds a fresh snapshot from the mutable indexes and
// publishes it. Callers hold c.mu.
func (c *Catalog) publishLocked() {
	c.snap.Store(&Snapshot{
		sem:      c.sem.View(),
		profiles: maps.Clone(c.profiles),
		refs:     maps.Clone(c.defaultRefs),
	})
}

// Len returns the number of indexed models.
func (s *Snapshot) Len() int { return s.sem.Len() }

// Contains reports whether the model ID is indexed.
func (s *Snapshot) Contains(id string) bool { return s.sem.Contains(id) }

// IDs returns the indexed model IDs in insertion order.
func (s *Snapshot) IDs() []string { return s.sem.IDs() }

// Lookup returns, in descending level order, all candidates of refID
// whose equivalence level meets the threshold.
func (s *Snapshot) Lookup(refID string, threshold float64) ([]index.Candidate, error) {
	return s.sem.Lookup(refID, threshold)
}

// TopK returns refID's K best candidates regardless of threshold.
func (s *Snapshot) TopK(refID string, k int) ([]index.Candidate, error) {
	return s.sem.TopK(refID, k)
}

// LookupByFingerprint resolves a model fingerprint to its indexed ID.
func (s *Snapshot) LookupByFingerprint(fp string) (string, bool) {
	return s.sem.LookupByFingerprint(fp)
}

// Profile returns the stored resource profile for id.
func (s *Snapshot) Profile(id string) (resource.Profile, bool) {
	p, ok := s.profiles[id]
	return p, ok
}

// DefaultReference resolves a task category to its reference model ID.
func (s *Snapshot) DefaultReference(task string) (string, bool) {
	id, ok := s.refs[task]
	return id, ok
}
