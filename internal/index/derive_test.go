package index

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"sommelier/internal/tensor"
)

// measuredOracle is the reference implementation of §5.2's insertion
// that derivation is checked against: it keeps, next to the lists, a
// table of every measured or derived pair's diff (1 − level), and
// derives an unsampled model's level from that table rather than from
// the partners' lists. Sampling is PlanInserts' own algorithm over its
// own RNG, so for equal seeds both sides draw the same partners.
type measuredOracle struct {
	sampleSize int
	rng        *tensor.RNG
	perm       []int
	order      []string
	lists      map[string][]Candidate
	measured   map[string]map[string]float64
}

func newMeasuredOracle(seed uint64, sampleSize int) *measuredOracle {
	return &measuredOracle{
		sampleSize: sampleSize,
		rng:        tensor.NewRNG(seed),
		lists:      make(map[string][]Candidate),
		measured:   make(map[string]map[string]float64),
	}
}

func (o *measuredOracle) plan(ids []string) [][]string {
	virtual := slices.Clone(o.order)
	var plans [][]string
	for _, id := range ids {
		var partners []string
		if len(virtual) <= o.sampleSize {
			partners = append(partners, virtual...)
		} else {
			o.perm = o.rng.PermInto(o.perm, len(virtual))
			for _, p := range o.perm[:o.sampleSize] {
				partners = append(partners, virtual[p])
			}
		}
		plans = append(plans, partners)
		virtual = append(virtual, id)
	}
	return plans
}

func (o *measuredOracle) commit(id string, meas []PairMeasurement) {
	var own []Candidate
	add := func(to string, c Candidate) { o.lists[to] = insertSorted(o.lists[to], c) }
	mine := make(map[string]float64)
	o.measured[id] = mine
	for _, pm := range meas {
		res := pm.Result
		if res.LevelForRef > 0 {
			own = append(own, Candidate{ID: pm.Partner, Level: res.LevelForRef, Kind: KindWhole})
		}
		if res.LevelForCand > 0 {
			add(pm.Partner, Candidate{ID: id, Level: res.LevelForCand, Kind: KindWhole})
		}
		mine[pm.Partner] = 1 - res.LevelForRef
		o.measured[pm.Partner][id] = 1 - res.LevelForCand
		own = append(own, res.SynthForRef...)
		for _, c := range res.SynthForCand {
			add(pm.Partner, c)
		}
	}
	sampled := make(map[string]bool, len(meas))
	for _, pm := range meas {
		sampled[pm.Partner] = true
	}
	for _, otherID := range o.order {
		if sampled[otherID] {
			continue
		}
		best := -1.0
		for _, pm := range meas {
			dNewY, ok := mine[pm.Partner]
			if !ok {
				continue
			}
			dYZ, ok := o.measured[pm.Partner][otherID]
			if !ok {
				continue
			}
			if lvl := 1 - (dNewY + dYZ); lvl > best {
				best = lvl
			}
		}
		if best > 0 {
			own = append(own, Candidate{ID: otherID, Level: best, Kind: KindWhole, Derived: true})
			add(otherID, Candidate{ID: id, Level: best, Kind: KindWhole, Derived: true})
			mine[otherID] = 1 - best
			o.measured[otherID][id] = 1 - best
		}
	}
	o.lists[id] = sortedOnce(own)
	o.order = append(o.order, id)
}

// skewAnalyzer scores a pair by the distance of two per-model tags,
// scaled per direction by the reference's own slope, so levels are
// asymmetric and many pairs sit at exactly 0 (clamped): the pairs a
// candidate list does not hold. Close pairs also get a synthesized
// record each way, keyed and donated as the catalog's analyzer does.
type skewAnalyzer struct {
	tag, slope map[string]float64
}

func (s skewAnalyzer) level(from, to string) float64 {
	return max(0, 1-s.slope[from]*math.Abs(s.tag[from]-s.tag[to]))
}

func (s skewAnalyzer) Analyze(ref, cand Entry) (AnalysisResult, error) {
	res := AnalysisResult{LevelForRef: s.level(ref.ID, cand.ID), LevelForCand: s.level(cand.ID, ref.ID)}
	if res.LevelForRef > 0.5 {
		res.SynthForRef = []Candidate{{ID: ref.ID, Level: res.LevelForRef / 2, Kind: KindSynthesized, DonorID: cand.ID, Segment: "s"}}
		res.SynthForCand = []Candidate{{ID: cand.ID, Level: res.LevelForCand / 2, Kind: KindSynthesized, DonorID: ref.ID, Segment: "s"}}
	}
	return res, nil
}

// TestDerivationMatchesMeasuredOracle: deriving an unsampled model's
// level from the sampled partners' candidate lists gives, bit for bit,
// the lists the measured-diff table gave — over random populations,
// sample sizes 1, 2 and 5, serial Insert and staged batches alike.
func TestDerivationMatchesMeasuredOracle(t *testing.T) {
	const models = 80
	m := tinyModel(t, 1)
	for seed := uint64(1); seed <= 3; seed++ {
		rng := tensor.NewRNG(100 + seed)
		an := skewAnalyzer{tag: map[string]float64{}, slope: map[string]float64{}}
		ids := make([]string, models)
		for i := range ids {
			ids[i] = fmt.Sprintf("m%02d", i)
			an.tag[ids[i]] = rng.Float64() * 0.6
			an.slope[ids[i]] = 0.5 + 2*rng.Float64()
		}
		for _, k := range []int{1, 2, 5} {
			for _, staged := range []bool{false, true} {
				t.Run(fmt.Sprintf("seed=%d/k=%d/staged=%v", seed, k, staged), func(t *testing.T) {
					idx := NewSemanticIndex(seed)
					idx.SampleSize = k
					oracle := newMeasuredOracle(seed, k)
					measure := func(e Entry, partners []string) []PairMeasurement {
						var meas []PairMeasurement
						for _, p := range partners {
							res, _ := an.Analyze(e, Entry{ID: p})
							meas = append(meas, PairMeasurement{Partner: p, Result: res})
						}
						return meas
					}
					batchRNG := tensor.NewRNG(seed)
					for lo := 0; lo < models; {
						hi := lo + 1
						if staged {
							hi = min(models, lo+1+batchRNG.Intn(12))
						}
						want := oracle.plan(ids[lo:hi])
						if staged {
							var entries []Entry
							for _, id := range ids[lo:hi] {
								entries = append(entries, Entry{ID: id, Model: m})
							}
							for i, p := range idx.PlanInserts(entries) {
								if !slices.Equal(p.Partners, want[i]) {
									t.Fatalf("%s: partners %v, oracle %v", p.Entry.ID, p.Partners, want[i])
								}
								if err := idx.CommitPlanned(p.Entry, measure(p.Entry, p.Partners)); err != nil {
									t.Fatal(err)
								}
							}
						} else if err := idx.Insert(Entry{ID: ids[lo], Model: m}, an); err != nil {
							t.Fatal(err)
						}
						for i, id := range ids[lo:hi] {
							oracle.commit(id, measure(Entry{ID: id}, want[i]))
						}
						lo = hi
					}
					derived := 0
					for _, id := range ids {
						if got, want := idx.lists[id], oracle.lists[id]; !slices.Equal(got, want) {
							t.Fatalf("%s:\n got %+v\nwant %+v", id, got, want)
						}
						for _, c := range oracle.lists[id] {
							if c.Derived {
								derived++
							}
						}
					}
					if derived == 0 {
						t.Fatal("no level was derived: the population does not exercise derivation")
					}
				})
			}
		}
	}
}
