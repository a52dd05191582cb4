// Package catalog is a miniature stand-in for the real
// sommelier/internal/catalog, letting snapcheck's golden tests resolve
// a type named Snapshot at the expected import-path suffix without
// loading the whole module. It also carries snapcheck's in-package
// golden cases: rule 1 (no field stores) applies inside the catalog
// package too, the publishLocked commit path included.
package catalog

import "maps"

// Candidate mirrors index.Candidate's shape.
type Candidate struct {
	ID    string
	Level float64
}

// version mirrors index.SemanticVersion: the real Snapshot embeds one,
// as an unexported field, and carries its read methods, which hand out
// the version's own lists.
type version struct {
	lists map[string][]Candidate
}

// TopK returns the first k candidates of ref's list, uncopied.
func (v *version) TopK(ref string, k int) ([]Candidate, error) {
	return v.lists[ref][:k:k], nil
}

// Snapshot mirrors the real immutable snapshot: unexported data
// reachable only through accessor methods, its own and the embedded
// version's.
type Snapshot struct {
	*version
	ids  []string
	refs map[string]string
}

// NewSnapshot builds a snapshot; the only legitimate construction is a
// composite literal, exactly like the real publishLocked.
func NewSnapshot(ids []string, refs map[string]string) *Snapshot {
	return &Snapshot{ids: ids, refs: refs}
}

// IDs returns the indexed IDs, uncopied.
func (s *Snapshot) IDs() []string { return s.ids[:len(s.ids):len(s.ids)] }

// Lookup returns candidates above the threshold.
func (s *Snapshot) Lookup(ref string, threshold float64) ([]Candidate, error) {
	var out []Candidate
	for _, id := range s.ids {
		if id != ref {
			out = append(out, Candidate{ID: id, Level: threshold})
		}
	}
	return out, nil
}

// Refs exposes the reference table (the real Snapshot exposes lookups
// only; this exercises map-element stores through a method result).
func (s *Snapshot) Refs() map[string]string { return s.refs }

// holder is the write side owning the published snapshot.
type holder struct {
	snap *Snapshot
}

// badStore writes a map element through a Snapshot field outside the
// commit path.
func (s *Snapshot) badStore(id string) {
	s.refs[id] = id // want `writes through catalog\.Snapshot data`
}

// badField rebinds a Snapshot field in place.
func (s *Snapshot) badField(ids []string) {
	s.ids = ids // want `writes through catalog\.Snapshot data`
}

// badElem writes a slice element through a Snapshot field.
func (h *holder) badElem() {
	h.snap.ids[0] = "overwritten" // want `writes through catalog\.Snapshot data`
}

// badAddr escapes a mutable reference to snapshot innards.
func (h *holder) badAddr() *[]string {
	return &h.snap.ids // want `takes the address of catalog\.Snapshot data`
}

// publishLocked is the commit path done right: the table it changes is
// cloned into a local first, the one it does not is shared, and the next
// snapshot is one composite literal — no store through a Snapshot, so
// no finding.
func (h *holder) publishLocked(task, id string) {
	refs := maps.Clone(h.snap.refs)
	refs[task] = id
	h.snap = &Snapshot{ids: h.snap.ids, refs: refs}
}

// badPublishLocked builds the next snapshot first and patches it
// afterwards: the table it writes is the one the previous snapshot
// still holds. The commit path gets no exemption.
func (h *holder) badPublishLocked(task, id string) {
	next := &Snapshot{ids: h.snap.ids, refs: h.snap.refs}
	next.refs[task] = id // want `writes through catalog\.Snapshot data`
	h.snap = next
}
