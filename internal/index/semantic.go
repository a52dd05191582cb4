// Package index implements Sommelier's two run-time index structures
// (§5): the semantic index, a hashtable from model IDs to descending
// lists of functionally equivalent candidates, and the
// resource-profile index, an LSH structure over resource vectors. The
// catalog writes the former and publishes its versions (SemanticVersion:
// immutable, sharing every list a commit did not touch with the version
// before); the latter is the standalone §5.3 reproduction the
// experiments construct directly.
package index

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"

	"sommelier/internal/cas"
	"sommelier/internal/graph"
	"sommelier/internal/tensor"
)

// ErrAlreadyIndexed is wrapped by Insert and CommitPlanned when the ID
// is already present. Staged pipelines treat it as "another writer got
// here first" and dedup by skipping the commit.
var ErrAlreadyIndexed = errors.New("already indexed")

// CandidateKind distinguishes real stored models from synthesized
// segment-replacement models (§5.2 insertion case (ii)).
type CandidateKind int

const (
	// KindWhole is a real model holistically equivalent to the key.
	KindWhole CandidateKind = iota
	// KindSynthesized is a model obtained by replacing a segment of the
	// keyed model with a segment of another stored model.
	KindSynthesized
)

func (k CandidateKind) String() string {
	if k == KindSynthesized {
		return "synthesized"
	}
	return "whole"
}

// Candidate is one record in a semantic-index candidate list.
type Candidate struct {
	// ID names the candidate model in the repository; synthesized
	// candidates carry the donor model's ID in DonorID and a segment
	// description in Segment.
	ID      string
	Level   float64
	Kind    CandidateKind
	DonorID string
	Segment string
	// Derived marks levels obtained transitively rather than measured.
	Derived bool
}

// Entry couples a repository model ID with its graph for analysis, and
// with the graph's tensor identity when its store reported one (see
// cas.Identity): the identity travels with the model it was taken with
// and is never looked up again by ID. An entry without one is analyzed
// from scratch.
type Entry struct {
	ID       string
	Model    *graph.Model
	Identity cas.Identity
}

// AnalysisResult is what an Analyzer reports for one ordered pair.
type AnalysisResult struct {
	// LevelForRef is the equivalence level of the candidate when it
	// stands in for the reference (asymmetric, §4.3).
	LevelForRef float64
	// LevelForCand is the reverse direction.
	LevelForCand float64
	// SynthForRef lists synthesized candidates for the reference's
	// entry (segment of candidate transplanted into reference).
	SynthForRef []Candidate
	// SynthForCand lists synthesized candidates for the candidate's
	// entry.
	SynthForCand []Candidate
}

// Analyzer measures pairwise functional equivalence. internal/equiv
// provides the real implementation; tests may stub it.
type Analyzer interface {
	Analyze(ref, cand Entry) (AnalysisResult, error)
}

// SemanticVersion is one version of the §5.2 structure: for each stored
// model, a list of candidate records ordered by descending
// functional-equivalence level, and the insertion order. Once its
// SemanticIndex has handed it out it is never written again, so any
// number of goroutines may read it, and keep it, with no locking. The
// slices it returns alias its own lists: callers must not write to them
// (the catalog's snapshot tests and the engine's oracle tests catch one
// that does).
type SemanticVersion struct {
	order []string               // insertion order; successors extend the same array
	lists map[string][]Candidate // model ID -> candidates; a stored list is never written, only replaced
}

// SemanticIndex is the write side of the §5.2 structure. It embeds the
// current version — the index's one copy of the lists, and its whole
// read API — next to the state only insertion needs. Callers
// synchronize writes; Version is how readers get a value that later
// writes leave alone.
type SemanticIndex struct {
	// SampleSize is how many existing models a new insertion is
	// measured against directly (the paper uses 5); the rest are
	// derived transitively.
	SampleSize int

	*SemanticVersion
	// handedOut: Version returned the current version, so the next
	// write moves to a successor instead of touching it.
	handedOut bool

	entries map[string]Entry // every indexed ID's entry, for analyzing new models against it
	// perm is PlanInserts' sampling permutation, kept between calls so
	// a plan allocates none once it has grown to the index's size.
	perm []int
	// derived is CommitPlanned's scratch table of the best derived level
	// per unsampled model, cleared and reused by every commit for the
	// same reason.
	derived map[string]float64
	rng     *tensor.RNG
}

// NewSemanticIndex returns an empty semantic index with the paper's
// 5-sample insertion policy.
func NewSemanticIndex(seed uint64) *SemanticIndex {
	return &SemanticIndex{
		SampleSize: 5,
		SemanticVersion: &SemanticVersion{
			lists: make(map[string][]Candidate),
		},
		entries: make(map[string]Entry),
		derived: make(map[string]float64),
		rng:     tensor.NewRNG(seed),
	}
}

// Version returns the current version. The index never writes to it
// again: the next write starts a successor.
func (s *SemanticIndex) Version() *SemanticVersion {
	s.handedOut = true
	return s.SemanticVersion
}

// writable returns the version writes go to. If the current one has
// been handed out, that is a successor owning a fresh copy of the list
// table — O(models) words, once per run of writes between two Version
// calls — and sharing every list and the order arrays.
func (s *SemanticIndex) writable() *SemanticVersion {
	if s.handedOut {
		next := *s.SemanticVersion
		next.lists = maps.Clone(next.lists)
		s.SemanticVersion, s.handedOut = &next, false
	}
	return s.SemanticVersion
}

// Len returns the number of indexed models.
func (v *SemanticVersion) Len() int { return len(v.order) }

// Stats is the semantic index's size digest: how many models are
// indexed and how the candidate edges among them break down. The
// catalog folds it into the unified metrics snapshot as gauges.
type Stats struct {
	Models      int // indexed models
	Candidates  int // candidate edges across all models
	Derived     int // edges whose level was derived transitively
	Synthesized int // segment-synthesized candidate edges
}

// Stats walks the version and counts.
func (v *SemanticVersion) Stats() Stats {
	st := Stats{Models: len(v.order)}
	for _, list := range v.lists {
		st.Candidates += len(list)
		for _, c := range list {
			if c.Derived {
				st.Derived++
			}
			if c.Kind == KindSynthesized {
				st.Synthesized++
			}
		}
	}
	return st
}

// IDs returns the indexed model IDs in insertion order.
func (v *SemanticVersion) IDs() []string { return slices.Clip(v.order) }

// Contains reports whether the model ID is indexed.
func (v *SemanticVersion) Contains(id string) bool {
	_, ok := v.lists[id]
	return ok
}

// Insert adds a model, measuring equivalence against up to SampleSize
// randomly chosen existing models via the analyzer and deriving levels to
// the remainder transitively (§5.2). It is the serial composition of the
// staged API: PlanInserts draws the sample, the analyzer measures each
// planned pair, and CommitPlanned applies the results.
func (s *SemanticIndex) Insert(e Entry, analyzer Analyzer) error {
	if e.ID == "" || e.Model == nil {
		return fmt.Errorf("index: entry must have an ID and a model")
	}
	if s.Contains(e.ID) {
		return fmt.Errorf("index: model %q %w", e.ID, ErrAlreadyIndexed)
	}
	plan := s.PlanInserts([]Entry{e})[0]
	meas := make([]PairMeasurement, 0, len(plan.Partners))
	for _, otherID := range plan.Partners {
		res, err := analyzer.Analyze(e, s.entries[otherID])
		if err != nil {
			return fmt.Errorf("index: analyzing %q vs %q: %w", e.ID, otherID, err)
		}
		meas = append(meas, PairMeasurement{Partner: otherID, Result: res})
	}
	return s.CommitPlanned(e, meas)
}

// SamplePlan pre-records the partners one future insertion will be
// measured against, in draw order.
type SamplePlan struct {
	Entry    Entry
	Partners []string
}

// PairMeasurement carries the analyzer's verdict for one planned
// partner, in the plan's draw order.
type PairMeasurement struct {
	Partner string
	Result  AnalysisResult
}

// PlanInserts stages a sequence of insertions: for each entry it draws
// the sampled partner set exactly as the equivalent sequence of serial
// Insert calls would — consuming the index RNG in the same order, with
// later entries able to sample earlier ones — without mutating index
// state. The caller measures the planned pairs (possibly in parallel,
// outside any lock) and applies them with CommitPlanned in plan order;
// for a fixed seed the resulting index is byte-identical to serial
// insertion regardless of how the measurements were scheduled.
func (s *SemanticIndex) PlanInserts(entries []Entry) []SamplePlan {
	k := s.SampleSize
	if k <= 0 {
		k = 5
	}
	virtual := s.IDs() // clipped: the appends below land in a copy
	plans := make([]SamplePlan, 0, len(entries))
	for _, e := range entries {
		var partners []string
		if len(virtual) <= k {
			partners = append(partners, virtual...)
		} else {
			s.perm = s.rng.PermInto(s.perm, len(virtual))
			for _, p := range s.perm[:k] {
				partners = append(partners, virtual[p])
			}
		}
		plans = append(plans, SamplePlan{Entry: e, Partners: partners})
		virtual = append(virtual, e.ID)
	}
	return plans
}

// EntryOf returns the stored entry (ID, model graph and identity) for id — the
// material a staged pipeline needs to analyze new models against
// already committed ones.
func (s *SemanticIndex) EntryOf(id string) (Entry, bool) {
	e, ok := s.entries[id]
	return e, ok
}

// CommitPlanned applies one planned insertion whose pairwise
// measurements were computed outside the index and its lock. It replays
// exactly what Insert does after analysis: symmetric candidate recording
// for each measured partner, then transitive derivation through the
// partners' candidate lists to every model they reach. Committing an
// ID that was indexed in the meantime fails with ErrAlreadyIndexed.
func (s *SemanticIndex) CommitPlanned(e Entry, meas []PairMeasurement) error {
	if e.ID == "" || e.Model == nil {
		return fmt.Errorf("index: entry must have an ID and a model")
	}
	if s.Contains(e.ID) {
		return fmt.Errorf("index: model %q %w", e.ID, ErrAlreadyIndexed)
	}
	for _, pm := range meas {
		if !s.Contains(pm.Partner) {
			return fmt.Errorf("index: planned partner %q is not indexed", pm.Partner)
		}
	}
	v := s.writable()
	// own collects the new model's records in arrival order; no version
	// holds its list yet, so it is sorted once at the end. A partner's
	// list may be published and is replaced record by record.
	var own []Candidate
	add := func(id string, c Candidate) { v.lists[id] = insertSorted(v.lists[id], c) }
	for _, pm := range meas {
		res := pm.Result
		// res.LevelForRef: candidate (the partner) standing in for the
		// new model; goes to the new model's list.
		if res.LevelForRef > 0 {
			own = append(own, Candidate{ID: pm.Partner, Level: res.LevelForRef, Kind: KindWhole})
		}
		if res.LevelForCand > 0 {
			add(pm.Partner, Candidate{ID: e.ID, Level: res.LevelForCand, Kind: KindWhole})
		}
		own = append(own, res.SynthForRef...)
		for _, c := range res.SynthForCand {
			add(pm.Partner, c)
		}
	}

	// Transitive derivation: for every model Z that a sampled Y lists,
	// diff(new, Z) is bounded above by diff(new, Y) + diff(Y, Z); the
	// paper's |A−B| lower bound is not needed for ranking, so the
	// conservative upper bound is stored. Y's list is the one copy of
	// diff(Y, Z) = 1 − level: a pair it lacks has level 0 and can only
	// bound the new model's level at or below 0, which is never kept.
	best := s.derived
	clear(best)
	for _, pm := range meas {
		dNewY := 1 - pm.Result.LevelForRef
		for _, c := range v.lists[pm.Partner] {
			if c.Kind != KindWhole {
				continue
			}
			dYZ := 1 - c.Level
			if lvl := 1 - (dNewY + dYZ); lvl > best[c.ID] {
				best[c.ID] = lvl
			}
		}
	}
	for _, pm := range meas {
		delete(best, pm.Partner)
	}
	// In insertion order, so that equal levels keep arrival order; IDs
	// that are not indexed (the new model among them) are skipped.
	for _, otherID := range v.order {
		if lvl, ok := best[otherID]; ok {
			own = append(own, Candidate{ID: otherID, Level: lvl, Kind: KindWhole, Derived: true})
			add(otherID, Candidate{ID: e.ID, Level: lvl, Kind: KindWhole, Derived: true})
		}
	}

	v.lists[e.ID] = sortedOnce(own)
	s.entries[e.ID] = e
	v.order = append(v.order, e.ID)
	return nil
}

// insertSorted returns list with c in its descending-level place, as a
// fresh slice: list may belong to a version readers hold, so it is
// never shifted in place. A record with c's (ID, Kind, Segment) is
// replaced if c's level is better and wins otherwise.
func insertSorted(list []Candidate, c Candidate) []Candidate {
	drop := -1
	for i, old := range list {
		if old.ID == c.ID && old.Kind == c.Kind && old.Segment == c.Segment {
			if c.Level <= old.Level {
				return list
			}
			drop = i // below c's place: its level is lower
			break
		}
	}
	pos := sort.Search(len(list), func(i int) bool { return list[i].Level < c.Level })
	out := make([]Candidate, 0, len(list)+1)
	out = append(append(out, list[:pos]...), c)
	if drop < 0 {
		return append(out, list[pos:]...)
	}
	return append(append(out, list[pos:drop]...), list[drop+1:]...)
}

// sortedOnce orders recs, in place, into the list that insertSorted
// builds from them one at a time: descending level, equal levels in
// arrival order, and of the records sharing an (ID, Kind, Segment) only
// the best — the earliest of them if their levels tie.
func sortedOnce(recs []Candidate) []Candidate {
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Level > recs[j].Level })
	type key struct {
		id      string
		kind    CandidateKind
		segment string
	}
	seen := make(map[key]bool, len(recs))
	out := recs[:0]
	for _, c := range recs {
		if k := (key{c.ID, c.Kind, c.Segment}); !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
	}
	return out
}

// InsertPrecomputed bulk-loads candidate records for an already indexed
// model, bypassing pairwise analysis. It serves two purposes: importing
// designer annotations (§5.5) and populating index-structure benchmarks
// at 100K-record scale, where per-record sorted insertion would be
// quadratic. The existing list and the records are merged as
// insertSorted would merge them one at a time, in one sort: of the
// records sharing an (ID, Kind, Segment) the higher level wins, so an
// annotation replaces the measurement it raises. A merge that raises
// nothing leaves the list, and the array versions share, as it was.
func (s *SemanticIndex) InsertPrecomputed(refID string, cands []Candidate) error {
	if !s.Contains(refID) {
		return fmt.Errorf("index: model %q is not indexed", refID)
	}
	old := s.lists[refID]
	if merged := sortedOnce(slices.Concat(old, cands)); !slices.Equal(merged, old) {
		s.writable().lists[refID] = merged
	}
	return nil
}

// Lookup returns, in descending level order, all candidates of the model
// identified by refID whose equivalence level meets the threshold.
func (v *SemanticVersion) Lookup(refID string, threshold float64) ([]Candidate, error) {
	list, ok := v.lists[refID]
	if !ok {
		return nil, fmt.Errorf("index: model %q is not indexed", refID)
	}
	return head(list, sort.Search(len(list), func(i int) bool {
		return list[i].Level < threshold
	})), nil
}

// TopK returns the refID's K best candidates regardless of threshold.
func (v *SemanticVersion) TopK(refID string, k int) ([]Candidate, error) {
	list, ok := v.lists[refID]
	if !ok {
		return nil, fmt.Errorf("index: model %q is not indexed", refID)
	}
	return head(list, min(k, len(list))), nil
}

// head returns the first n records of a version's list without copying
// them, capacity-clipped so that a caller's append cannot reach the
// shared array.
func head(list []Candidate, n int) []Candidate {
	if n == 0 {
		return nil
	}
	return list[:n:n]
}

// MemoryBytes estimates the in-memory footprint of the semantic index:
// IDs and candidate records, the one copy of every level. Models
// themselves live in the repository, not here (§5.5, persistence).
func (v *SemanticVersion) MemoryBytes() int64 {
	var total int64
	for _, id := range v.order {
		total += int64(len(id)) + 48
		for _, c := range v.lists[id] {
			total += int64(len(c.ID)+len(c.DonorID)+len(c.Segment)) + 40
		}
	}
	return total
}
