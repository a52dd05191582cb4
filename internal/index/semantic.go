// Package index implements Sommelier's two run-time index structures
// (§5): the semantic index, a hashtable from model fingerprints to
// descending lists of functionally equivalent candidates, and the
// resource-profile index, an LSH structure over resource vectors. The
// catalog owns and snapshots the former; the latter is the standalone
// §5.3 reproduction the experiments construct directly.
package index

import (
	"errors"
	"fmt"
	"sort"

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

// Entry couples a repository model ID with its graph for analysis.
type Entry struct {
	ID    string
	Model *graph.Model
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

// SemanticIndex is the §5.2 structure: for each stored model, a list of
// candidate records ordered by descending functional-equivalence level.
type SemanticIndex struct {
	// SampleSize is how many existing models a new insertion is
	// measured against directly (the paper uses 5); the rest are
	// derived transitively.
	SampleSize int

	entries map[string]*semEntry // keyed by model ID
	byFP    map[string]string    // fingerprint -> model ID
	order   []string             // insertion order, for deterministic sampling
	rng     *tensor.RNG
}

type semEntry struct {
	entry       Entry
	fingerprint string
	candidates  []Candidate
	// measured records which other IDs have a directly measured level
	// (used for transitive derivation).
	measured map[string]float64 // other ID -> diff (1 - level)
}

// NewSemanticIndex returns an empty semantic index with the paper's
// 5-sample insertion policy.
func NewSemanticIndex(seed uint64) *SemanticIndex {
	return &SemanticIndex{
		SampleSize: 5,
		entries:    make(map[string]*semEntry),
		byFP:       make(map[string]string),
		rng:        tensor.NewRNG(seed),
	}
}

// Len returns the number of indexed models.
func (s *SemanticIndex) Len() int { return len(s.entries) }

// Stats is the semantic index's size digest: how many models are
// indexed and how the candidate edges among them break down. The
// catalog folds it into the unified metrics snapshot as gauges.
type Stats struct {
	Models      int // indexed models
	Candidates  int // candidate edges across all models
	Derived     int // edges whose level was derived transitively
	Synthesized int // segment-synthesized candidate edges
}

// Stats walks the index and counts. Callers synchronize as for any
// other read.
func (s *SemanticIndex) Stats() Stats {
	st := Stats{Models: len(s.entries)}
	for _, e := range s.entries {
		st.Candidates += len(e.candidates)
		for _, c := range e.candidates {
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
func (s *SemanticIndex) IDs() []string { return append([]string(nil), s.order...) }

// Contains reports whether the model ID is indexed.
func (s *SemanticIndex) Contains(id string) bool {
	_, ok := s.entries[id]
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
	if _, dup := s.entries[e.ID]; dup {
		return fmt.Errorf("index: model %q %w", e.ID, ErrAlreadyIndexed)
	}
	plan := s.PlanInserts([]Entry{e})[0]
	meas := make([]PairMeasurement, 0, len(plan.Partners))
	for _, otherID := range plan.Partners {
		res, err := analyzer.Analyze(e, s.entries[otherID].entry)
		if err != nil {
			return fmt.Errorf("index: analyzing %q vs %q: %w", e.ID, otherID, err)
		}
		meas = append(meas, PairMeasurement{Partner: otherID, Result: res})
	}
	return s.CommitPlanned(e, e.Model.Fingerprint(), meas)
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
	virtual := append([]string(nil), s.order...)
	plans := make([]SamplePlan, 0, len(entries))
	for _, e := range entries {
		var partners []string
		if len(virtual) <= k {
			partners = append(partners, virtual...)
		} else {
			perm := s.rng.Perm(len(virtual))
			for _, p := range perm[:k] {
				partners = append(partners, virtual[p])
			}
		}
		plans = append(plans, SamplePlan{Entry: e, Partners: partners})
		virtual = append(virtual, e.ID)
	}
	return plans
}

// EntryOf returns the stored entry (ID plus model graph) for id — the
// material a staged pipeline needs to analyze new models against
// already committed ones.
func (s *SemanticIndex) EntryOf(id string) (Entry, bool) {
	rec, ok := s.entries[id]
	if !ok {
		return Entry{}, false
	}
	return rec.entry, true
}

// CommitPlanned applies one planned insertion whose pairwise
// measurements — and fingerprint, a hash over every parameter — were
// computed outside the index and its lock. It replays exactly what
// Insert does after analysis: symmetric candidate recording for each
// measured partner, then transitive derivation against every remaining
// indexed model. Committing an ID that was indexed in the meantime
// fails with ErrAlreadyIndexed.
func (s *SemanticIndex) CommitPlanned(e Entry, fingerprint string, meas []PairMeasurement) error {
	if e.ID == "" || e.Model == nil {
		return fmt.Errorf("index: entry must have an ID and a model")
	}
	if _, dup := s.entries[e.ID]; dup {
		return fmt.Errorf("index: model %q %w", e.ID, ErrAlreadyIndexed)
	}
	for _, pm := range meas {
		if _, ok := s.entries[pm.Partner]; !ok {
			return fmt.Errorf("index: planned partner %q is not indexed", pm.Partner)
		}
	}
	rec := &semEntry{
		entry:       e,
		fingerprint: fingerprint,
		measured:    make(map[string]float64),
	}

	for _, pm := range meas {
		other := s.entries[pm.Partner]
		res := pm.Result
		// res.LevelForRef: candidate (other) standing in for the new
		// model; goes to the new entry's list.
		if res.LevelForRef > 0 {
			rec.candidates = insertSorted(rec.candidates, Candidate{
				ID: pm.Partner, Level: res.LevelForRef, Kind: KindWhole,
			})
		}
		if res.LevelForCand > 0 {
			other.candidates = insertSorted(other.candidates, Candidate{
				ID: e.ID, Level: res.LevelForCand, Kind: KindWhole,
			})
		}
		rec.measured[pm.Partner] = 1 - res.LevelForRef
		other.measured[e.ID] = 1 - res.LevelForCand
		for _, c := range res.SynthForRef {
			rec.candidates = insertSorted(rec.candidates, c)
		}
		for _, c := range res.SynthForCand {
			other.candidates = insertSorted(other.candidates, c)
		}
	}

	// Transitive derivation: for every unsampled model Z reachable
	// through a sampled Y, diff(new, Z) is bounded above by
	// diff(new, Y) + diff(Y, Z); the paper's |A−B| lower bound is not
	// needed for ranking, so the conservative upper bound is stored.
	sampledSet := make(map[string]bool, len(meas))
	for _, pm := range meas {
		sampledSet[pm.Partner] = true
	}
	for _, otherID := range s.order {
		if sampledSet[otherID] {
			continue
		}
		other := s.entries[otherID]
		best := -1.0
		for _, pm := range meas {
			dNewY, ok := rec.measured[pm.Partner]
			if !ok {
				continue
			}
			dYZ, ok := s.entries[pm.Partner].measured[otherID]
			if !ok {
				continue
			}
			if lvl := 1 - (dNewY + dYZ); lvl > best {
				best = lvl
			}
		}
		if best > 0 {
			rec.candidates = insertSorted(rec.candidates, Candidate{
				ID: otherID, Level: best, Kind: KindWhole, Derived: true,
			})
			other.candidates = insertSorted(other.candidates, Candidate{
				ID: e.ID, Level: best, Kind: KindWhole, Derived: true,
			})
			rec.measured[otherID] = 1 - best
			other.measured[e.ID] = 1 - best
		}
	}

	s.entries[e.ID] = rec
	s.byFP[rec.fingerprint] = e.ID
	s.order = append(s.order, e.ID)
	return nil
}

func insertSorted(list []Candidate, c Candidate) []Candidate {
	// Replace an existing record for the same (ID, Kind, Segment) if
	// the new level is better.
	for i, old := range list {
		if old.ID == c.ID && old.Kind == c.Kind && old.Segment == c.Segment {
			if c.Level <= old.Level {
				return list
			}
			list = append(list[:i], list[i+1:]...)
			break
		}
	}
	pos := sort.Search(len(list), func(i int) bool { return list[i].Level < c.Level })
	list = append(list, Candidate{})
	copy(list[pos+1:], list[pos:])
	list[pos] = c
	return list
}

// InsertPrecomputed bulk-loads candidate records for an already indexed
// model, bypassing pairwise analysis. It serves two purposes: importing
// designer annotations (§5.5) and populating index-structure benchmarks
// at 100K-record scale, where per-record sorted insertion would be
// quadratic. Records are sorted descending and replace the existing list
// merged with it.
func (s *SemanticIndex) InsertPrecomputed(refID string, cands []Candidate) error {
	rec, ok := s.entries[refID]
	if !ok {
		return fmt.Errorf("index: model %q is not indexed", refID)
	}
	merged := append(append([]Candidate(nil), rec.candidates...), cands...)
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].Level > merged[j].Level })
	rec.candidates = merged
	return nil
}

// Lookup returns, in descending level order, all candidates of the model
// identified by refID whose equivalence level meets the threshold.
func (s *SemanticIndex) Lookup(refID string, threshold float64) ([]Candidate, error) {
	rec, ok := s.entries[refID]
	if !ok {
		return nil, fmt.Errorf("index: model %q is not indexed", refID)
	}
	return cutAtThreshold(rec.candidates, threshold), nil
}

// cutAtThreshold returns a copy of the descending-sorted list's prefix
// at or above the threshold, binary-searching the cutoff.
func cutAtThreshold(list []Candidate, threshold float64) []Candidate {
	cut := sort.Search(len(list), func(i int) bool {
		return list[i].Level < threshold
	})
	if cut == 0 {
		return nil
	}
	return append([]Candidate(nil), list[:cut]...)
}

// LookupByFingerprint resolves a model fingerprint to its indexed ID —
// the paper's key calculation on query submission.
func (s *SemanticIndex) LookupByFingerprint(fp string) (string, bool) {
	id, ok := s.byFP[fp]
	return id, ok
}

// TopK returns the refID's K best candidates regardless of threshold.
func (s *SemanticIndex) TopK(refID string, k int) ([]Candidate, error) {
	rec, ok := s.entries[refID]
	if !ok {
		return nil, fmt.Errorf("index: model %q is not indexed", refID)
	}
	return topOf(rec.candidates, k), nil
}

// topOf copies the first k records of a descending-sorted list.
func topOf(list []Candidate, k int) []Candidate {
	if k > len(list) {
		k = len(list)
	}
	return append([]Candidate(nil), list[:k]...)
}

// MemoryBytes estimates the in-memory footprint of the semantic index:
// fingerprints, candidate records, and the measured-diff maps. Models
// themselves live in the repository, not here (§5.5, persistence).
func (s *SemanticIndex) MemoryBytes() int64 {
	var total int64
	for id, rec := range s.entries {
		total += int64(len(id)) + int64(len(rec.fingerprint)) + 48
		for _, c := range rec.candidates {
			total += int64(len(c.ID)+len(c.DonorID)+len(c.Segment)) + 40
		}
		total += int64(len(rec.measured)) * 56
	}
	return total
}
