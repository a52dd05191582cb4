package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"sommelier/internal/graph"
	"sommelier/internal/repo"
	"sommelier/internal/tensor"
	"sommelier/internal/zoo"
)

// rungWidths is the hidden-width ladder of every hub series: rung r of
// a series is its core inflated from width 40 to rungWidths[r], so the
// resource profiles of one series span more than 8× in memory and
// FLOPs while its members stay functionally close.
var rungWidths = [...]int{40, 48, 64, 80, 96, 128}

const rungs = len(rungWidths)

// Population is a generated model set in publish order, with the size
// of each model's graph.Encode form (the "user bytes" every storage and
// wire ratio is taken against) and a digest over all encodings.
type Population struct {
	Models []*graph.Model
	IDs    []string
	// EncodedBytes[i] is len(graph.Encode(Models[i])).
	EncodedBytes []int64
	// Digests[i] is the SHA-256 of Models[i]'s encoding; Digest covers
	// all of them in order.
	Digests []string
	Digest  string
}

// UserBytes is the summed graph.Encode size of models [lo, hi).
func (p *Population) UserBytes(lo, hi int) int64 {
	var n int64
	for _, b := range p.EncodedBytes[lo:hi] {
		n += b
	}
	return n
}

// Slice returns the sub-population [lo, hi) sharing the models.
func (p *Population) Slice(lo, hi int) *Population {
	return &Population{
		Models: p.Models[lo:hi], IDs: p.IDs[lo:hi],
		EncodedBytes: p.EncodedBytes[lo:hi], Digests: p.Digests[lo:hi],
	}
}

// finish encodes every model once, recording sizes and digests.
func finish(models []*graph.Model) (*Population, error) {
	p := &Population{Models: models}
	all := sha256.New()
	var buf bytes.Buffer
	for _, m := range models {
		buf.Reset()
		if err := graph.Encode(&buf, m); err != nil {
			return nil, fmt.Errorf("bench: encoding %s: %w", m.Name, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		all.Write(sum[:])
		p.IDs = append(p.IDs, repo.IDFor(m))
		p.EncodedBytes = append(p.EncodedBytes, int64(buf.Len()))
		p.Digests = append(p.Digests, hex.EncodeToString(sum[:]))
	}
	p.Digest = hex.EncodeToString(all.Sum(nil))
	return p, nil
}

// HubPopulation synthesizes a TF-Hub-like model population of
// trunks × seriesPerTrunk × 6 models: every trunk is a dense-residual
// net (width 40, depth alternating 2 and 3 so the shape of the
// population does not depend on the seed), every series a perturbed
// core of its trunk, every rung a perturbed core inflated along
// rungWidths. Series of one trunk correlate; series of different trunks
// do not. The publish order is a seeded shuffle, as uploads to a hub
// arrive in no useful order. One model costs about a millisecond to
// make, against ~137 ms for zoo.Catalog's calibrated rungs.
func HubPopulation(seed uint64, trunks, seriesPerTrunk int) (*Population, error) {
	rng := tensor.NewRNG(seed ^ 0x68756231)
	models := make([]*graph.Model, 0, trunks*seriesPerTrunk*rungs)
	for t := 0; t < trunks; t++ {
		trunk, err := zoo.Build("dense-residual", zoo.Config{
			Name: fmt.Sprintf("t%02d", t), Seed: rng.Uint64(), Depth: 2 + t%2, Width: rungWidths[0],
		})
		if err != nil {
			return nil, fmt.Errorf("bench: trunk %d: %w", t, err)
		}
		for s := 0; s < seriesPerTrunk; s++ {
			series := fmt.Sprintf("t%02d-s%02d", t, s)
			coreFrac := 0.01 + 0.04*float64(s)/float64(max(seriesPerTrunk-1, 1))
			core := zoo.Perturb(trunk, series, coreFrac, rng.Uint64())
			for r := 0; r < rungs; r++ {
				name := fmt.Sprintf("%s-r%d", series, r)
				v := zoo.Perturb(core, name, 0.005+0.004*float64(r), rng.Uint64())
				if w := rungWidths[r]; w != rungWidths[0] {
					if v, err = zoo.Inflate(v, name, rungWidths[0], w, rng.Uint64()); err != nil {
						return nil, fmt.Errorf("bench: inflating %s: %w", name, err)
					}
				}
				v.Version = "1"
				if v.Metadata == nil {
					v.Metadata = map[string]string{}
				}
				v.Metadata["series"] = series
				models = append(models, v)
			}
		}
	}
	shuffled := make([]*graph.Model, len(models))
	for i, j := range rng.Perm(len(models)) {
		shuffled[i] = models[j]
	}
	return finish(shuffled)
}

// FineTunedSeries synthesizes nSeries fine-tuned families of perSeries
// models: a width-96 depth-3 base followed by variants cycling through
// sparse edits (delta territory), frozen-trunk transfers (head swaps)
// and lightly tuned transfers — the population the chunk store's dedup
// and the hub's chunk negotiation exist for. Each family carries its
// own series name, so a cluster ring places it on one shard; bases
// precede their variants, as a fine-tune is uploaded after its base.
func FineTunedSeries(seed uint64, nSeries, perSeries int) (*Population, error) {
	const (
		width, depth = 96, 3
		trunkLinears = 1 + 2*depth // stem + two Dense per residual block
	)
	rng := tensor.NewRNG(seed ^ 0x66743231)
	var models []*graph.Model
	for s := 0; s < nSeries; s++ {
		series := fmt.Sprintf("ft%02d", s)
		base, err := zoo.DenseResidualNet(zoo.Config{
			Name: series + "-base", Seed: rng.Uint64(), Width: width, Depth: depth, Series: series,
		})
		if err != nil {
			return nil, fmt.Errorf("bench: series %d base: %w", s, err)
		}
		base.Version = "1"
		models = append(models, base)
		for i := 1; i < perSeries; i++ {
			name := fmt.Sprintf("%s-v%02d", series, i)
			var v *graph.Model
			switch i % 3 {
			case 0:
				v, err = zoo.SparseEdit(base, name, 8, rng.Uint64())
			case 1:
				v, err = zoo.Transfer(base, name, 8, trunkLinears, 0, rng.Uint64())
			default:
				v, err = zoo.Transfer(base, name, 8, trunkLinears-1, 0.02, rng.Uint64())
			}
			if err != nil {
				return nil, fmt.Errorf("bench: %s: %w", name, err)
			}
			v.Version = "1"
			v.Metadata["series"] = series
			models = append(models, v)
		}
	}
	return finish(models)
}

// Shape is the form of one query of the mix.
type Shape int

const (
	ShapeSim       Shape = iota // SELECT CORR r WITHIN t
	ShapeBudgetRel              // ... ON memory <= x% PICK smallest
	ShapeBudgetAbs              // ... ON memory <= xMB AND latency <= yms PICK fastest
	ShapeRange                  // ... ON flops >= 10% AND flops <= 150% PICK cheapest
	ShapeExec                   // budget_rel under EXEC batch=8
	ShapeTask                   // SELECT TASK classification ... (default reference)
	numShapes
)

var shapeNames = [numShapes]string{"sim", "budget_rel", "budget_abs", "range", "exec", "task"}

func (s Shape) String() string { return shapeNames[s] }

// shapeShare is the mix in percent; shapeOf lays it out over a cycle of
// 20 arrivals so every run sees exactly these shares.
var shapeShare = [numShapes]int{35, 30, 15, 10, 5, 5}

// Query is one generated query with the shape it was drawn as.
type Query struct {
	Text  string
	Shape Shape
	Ref   string
}

// QueryMix is a generated arrival-order query sequence.
type QueryMix struct {
	Queries []Query
	Digest  string
}

// Texts returns the query strings of [lo, hi).
func (m *QueryMix) Texts(lo, hi int) []string {
	out := make([]string, hi-lo)
	for i := range out {
		out[i] = m.Queries[lo+i].Text
	}
	return out
}

var (
	thresholds  = [...]int{30, 50, 70}
	relBudgets  = [...]int{25, 50, 80, 120, 300}
	absMemoryMB = [...]float64{0.05, 0.1, 0.2, 0.4}
	absLatency  = [...]float64{0.00015, 0.0002, 0.0003, 0.0006}
)

// newQuery renders one query of the given shape. budget indexes
// relBudgets (shapes with a relative budget) or the absolute ladders.
func newQuery(shape Shape, ref, task string, threshold, budget int) Query {
	target := fmt.Sprintf("CORR %q", ref)
	var rest string
	switch shape {
	case ShapeSim:
		rest = "PICK most_similar"
	case ShapeBudgetRel:
		rest = fmt.Sprintf("ON memory <= %d%% PICK smallest", relBudgets[budget%len(relBudgets)])
	case ShapeBudgetAbs:
		rest = fmt.Sprintf("ON memory <= %gMB AND latency <= %gms PICK fastest",
			absMemoryMB[budget%len(absMemoryMB)], absLatency[budget/len(absMemoryMB)%len(absLatency)])
	case ShapeRange:
		rest = "ON flops >= 10% AND flops <= 150% PICK cheapest"
	case ShapeExec:
		rest = fmt.Sprintf("ON memory <= %d%% EXEC batch=8 PICK smallest", relBudgets[budget%len(relBudgets)])
	case ShapeTask:
		target, ref = fmt.Sprintf("TASK %q", task), ""
		rest = fmt.Sprintf("ON memory <= %d%% PICK smallest", relBudgets[budget%len(relBudgets)])
	}
	return Query{Text: fmt.Sprintf("SELECT %s WITHIN %d%% %s", target, threshold, rest), Shape: shape, Ref: ref}
}

// epochLen is how many arrivals share one popularity ranking. Model
// popularity on a hub drifts; redrawing the ranking every epoch also
// keeps one run's timings from hanging on which few models a single
// Zipf(1) ranking happened to put on top.
const epochLen = 1024

// NewQueryMix draws n queries in arrival order: the reference of each
// is Zipf(1)-distributed over a ranking of refs that is reshuffled
// every epochLen arrivals, its shape follows shapeShare in a seeded
// order, its threshold and budgets are uniform over the fixed ladders
// above. task names the default-reference category the "task" shape
// asks for.
func NewQueryMix(seed uint64, refs []string, task string, n int) *QueryMix {
	rng := tensor.NewRNG(seed ^ 0x716d6978)
	// Zipf(1) by inversion over the cumulative harmonic weights.
	cum := make([]float64, len(refs))
	total := 0.0
	for i := range refs {
		total += 1 / float64(i+1)
		cum[i] = total
	}
	var cycle []Shape
	for s, share := range shapeShare {
		for i := 0; i < share/5; i++ {
			cycle = append(cycle, Shape(s))
		}
	}
	mix := &QueryMix{Queries: make([]Query, 0, n)}
	sum := sha256.New()
	var order, ranking []int
	for len(mix.Queries) < n {
		if len(mix.Queries)%epochLen == 0 {
			ranking = rng.Perm(len(refs))
		}
		if len(order) == 0 {
			order = rng.Perm(len(cycle))
		}
		shape := cycle[order[0]]
		order = order[1:]
		ref := refs[ranking[sort.SearchFloat64s(cum, rng.Float64()*total)]]
		q := newQuery(shape, ref, task, thresholds[rng.Intn(len(thresholds))], rng.Intn(len(absMemoryMB)*len(absLatency)*len(relBudgets)))
		sum.Write([]byte(q.Text))
		sum.Write([]byte{0})
		mix.Queries = append(mix.Queries, q)
	}
	mix.Digest = hex.EncodeToString(sum.Sum(nil))
	return mix
}

// CanonicalQueries is the seed-independent query set the count metrics
// are taken over: for every reference and threshold, one sim query,
// one budget_rel per relative budget, four budget_abs along the
// diagonal of the absolute ladders, one range and one exec query, plus
// the task queries. Counting over it instead of over the seeded mix is
// what lets allocation and recall figures repeat from run to run.
func CanonicalQueries(refs []string, task string) []Query {
	var out []Query
	for _, t := range thresholds {
		for _, ref := range refs {
			out = append(out, newQuery(ShapeSim, ref, task, t, 0))
			for b := range relBudgets {
				out = append(out, newQuery(ShapeBudgetRel, ref, task, t, b))
			}
			for b := range absMemoryMB {
				out = append(out, newQuery(ShapeBudgetAbs, ref, task, t, b*(len(absMemoryMB)+1)))
			}
			out = append(out, newQuery(ShapeRange, ref, task, t, 0), newQuery(ShapeExec, ref, task, t, 2))
		}
		for b := range relBudgets {
			out = append(out, newQuery(ShapeTask, "", task, t, b))
		}
	}
	return out
}
