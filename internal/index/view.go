package index

import "fmt"

// A view is an immutable point-in-time copy of the semantic index, the
// read side of the catalog's copy-on-write snapshot scheme: the mutable
// SemanticIndex stays behind the writer lock, and each commit publishes
// a fresh view that any number of readers can query concurrently with
// zero locking. Candidate lists are copied at view-build time because
// insertSorted mutates their backing storage in place.

// SemanticView is an immutable view of a SemanticIndex.
type SemanticView struct {
	order      []string
	byFP       map[string]string
	candidates map[string][]Candidate
}

// View captures the semantic index's current state as an immutable view.
func (s *SemanticIndex) View() *SemanticView {
	v := &SemanticView{
		order:      append([]string(nil), s.order...),
		byFP:       make(map[string]string, len(s.byFP)),
		candidates: make(map[string][]Candidate, len(s.entries)),
	}
	for fp, id := range s.byFP {
		v.byFP[fp] = id
	}
	for id, rec := range s.entries {
		v.candidates[id] = append([]Candidate(nil), rec.candidates...)
	}
	return v
}

// Len returns the number of indexed models.
func (v *SemanticView) Len() int { return len(v.order) }

// Contains reports whether the model ID is indexed.
func (v *SemanticView) Contains(id string) bool {
	_, ok := v.candidates[id]
	return ok
}

// IDs returns the indexed model IDs in insertion order.
func (v *SemanticView) IDs() []string { return append([]string(nil), v.order...) }

// Lookup returns, in descending level order, all candidates of the model
// identified by refID whose equivalence level meets the threshold.
func (v *SemanticView) Lookup(refID string, threshold float64) ([]Candidate, error) {
	list, ok := v.candidates[refID]
	if !ok {
		return nil, fmt.Errorf("index: model %q is not indexed", refID)
	}
	return cutAtThreshold(list, threshold), nil
}

// TopK returns the refID's K best candidates regardless of threshold.
func (v *SemanticView) TopK(refID string, k int) ([]Candidate, error) {
	list, ok := v.candidates[refID]
	if !ok {
		return nil, fmt.Errorf("index: model %q is not indexed", refID)
	}
	return topOf(list, k), nil
}

// LookupByFingerprint resolves a model fingerprint to its indexed ID.
func (v *SemanticView) LookupByFingerprint(fp string) (string, bool) {
	id, ok := v.byFP[fp]
	return id, ok
}
