package catalog

import (
	"sync"

	"sommelier/internal/index"
	"sommelier/internal/resource"
)

// Snapshot is one immutable version of everything the catalog lets
// readers see — and the only copy of it: a version of the semantic
// index, whose read methods (Len, Contains, IDs, Lookup, TopK,
// LookupByFingerprint) it carries, the profile table and the
// default-reference table. A query (or Explain) grabs one Snapshot and
// runs every stage of the §5.4 pipeline against it, so its answers are
// internally consistent even while writers commit new models — and it
// takes no locks at all.
//
// Successive snapshots share what a commit did not change: every
// candidate list it did not touch, and a table it did not write. What
// a Snapshot method returns therefore aliases published data and must
// not be written to; sommlint's snapcheck enforces that.
type Snapshot struct {
	*version
	profiles map[string]resource.Profile
	refs     map[string]string
	stats    func() index.Stats
	evidence int // models whose observation the writer had cached at publish
}

// version keeps the embedded field unexported: the read methods are
// promoted, the value behind them is not reachable from outside.
type version = index.SemanticVersion

// Snapshot returns the current published snapshot. The result is
// immutable and safe to use indefinitely from any goroutine.
func (c *Catalog) Snapshot() *Snapshot { return c.snap.Load() }

// publishLocked builds the next snapshot — nothing else builds one —
// from the writer's current semantic version and the two tables, and
// swaps it in. A commit that changed a table passes a clone it wrote
// to; one that did not passes the current snapshot's table, which the
// next one then shares. Callers hold c.mu.
func (c *Catalog) publishLocked(profiles map[string]resource.Profile, refs map[string]string) {
	v := c.writer.Version()
	c.snap.Store(&Snapshot{version: v, profiles: profiles, refs: refs, stats: sync.OnceValue(v.Stats), evidence: len(c.evidence)})
}

// Stats is the semantic version's size digest, counted on first use and
// kept: a metrics scrape reads four gauges from one walk.
func (s *Snapshot) Stats() index.Stats { return s.stats() }

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
