// Package snapwrite is snapcheck's golden input for rule 2: outside
// internal/catalog, data obtained from a Snapshot method is immutable —
// element writes, appends, and in-place sorts are flagged; copies are
// the sanctioned idiom.
package snapwrite

import (
	"sort"

	"sommelier/internal/catalog"
)

func mutateDerived(s *catalog.Snapshot) {
	cands, _ := s.Lookup("ref", 0.9)
	cands[0].Level = 0 // want `writes into data derived from a catalog\.Snapshot`

	top, _ := s.TopK("ref", 3) // promoted from the embedded version
	top[0].Level = 1           // want `writes into data derived from a catalog\.Snapshot`

	ids := s.IDs()
	ids[0] = "swapped" // want `writes into data derived from a catalog\.Snapshot`

	_ = append(ids, "extra") // want `appends to a snapshot-derived slice`

	sort.Strings(ids) // want `sorts a snapshot-derived slice in place`

	s.Refs()["task"] = "model" // want `writes into data derived from a catalog\.Snapshot`
}

// copyFirst is the sanctioned pattern: copy, then do whatever you want
// — no findings.
func copyFirst(s *catalog.Snapshot) []string {
	ids := append([]string(nil), s.IDs()...)
	ids[0] = "mine"
	sort.Strings(ids)
	ids = append(ids, "extra")
	return ids
}

// reassignment kills the taint: once the variable is rebound to
// non-snapshot data, writes are fine.
func retaint(s *catalog.Snapshot, other []string) {
	ids := s.IDs()
	ids = other
	ids[0] = "fine"
	sort.Strings(ids)
}

// readOnly exercises the untainted read paths — no findings.
func readOnly(s *catalog.Snapshot) int {
	n := 0
	for _, id := range s.IDs() {
		if id != "" {
			n++
		}
	}
	return n
}
