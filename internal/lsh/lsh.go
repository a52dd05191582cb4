// Package lsh implements locality-sensitive hashing with two hash
// families: cosine (random hyperplanes) for direction-dominated data and
// p-stable (quantized random projections, Datar et al. — the paper's
// reference [19]) for magnitude-dominated data. The resource-profile
// index uses the p-stable family over log-transformed resource vectors
// for fast distance-based range search (§5.3 of the paper).
package lsh

import (
	"fmt"
	"math"
	"sort"

	"sommelier/internal/tensor"
)

// Family selects the hash family.
type Family int

const (
	// Cosine hashes by random hyperplanes; distance is cosine distance.
	// Right for direction-dominated data.
	Cosine Family = iota
	// PStable hashes by quantized random projections (Datar et al.,
	// the paper's reference [19]); distance is Euclidean. Right for
	// magnitude-dominated data such as resource profiles.
	PStable
)

// Config sets the LSH shape: L hash tables of K hash functions each.
// More tables raise recall; more functions raise precision. The paper
// notes the optimal parameters vary by scenario and are set empirically.
type Config struct {
	Family Family
	Tables int
	Bits   int
	Dim    int
	// W is the PStable quantization width (ignored for Cosine).
	W    float64
	Seed uint64
}

// DefaultConfig returns parameters that work well for the 2–3 dimensional
// resource vectors Sommelier indexes.
func DefaultConfig(dim int) Config {
	return Config{Tables: 8, Bits: 6, Dim: dim, Seed: 0x10c4}
}

// Index is an LSH index mapping float vectors to opaque string ids. It
// is not safe for concurrent mutation.
type Index struct {
	cfg    Config
	planes [][][]float64 // [table][fn][dim]
	// offsets are the PStable per-function shifts b ∈ [0, W).
	offsets [][]float64 // [table][fn]
	tables  []map[uint64][]entry
	byID    map[string][]float64
	count   int
}

type entry struct {
	id  string
	vec []float64
}

// New creates an empty index. Dim must be positive.
func New(cfg Config) (*Index, error) {
	if cfg.Dim <= 0 {
		return nil, fmt.Errorf("lsh: dimension must be positive, got %d", cfg.Dim)
	}
	if cfg.Tables <= 0 {
		cfg.Tables = 8
	}
	if cfg.Bits <= 0 || cfg.Bits > 62 {
		cfg.Bits = 6
	}
	if cfg.Family == PStable && cfg.W <= 0 {
		cfg.W = 1
	}
	rng := tensor.NewRNG(cfg.Seed + 1)
	idx := &Index{
		cfg:     cfg,
		planes:  make([][][]float64, cfg.Tables),
		offsets: make([][]float64, cfg.Tables),
		tables:  make([]map[uint64][]entry, cfg.Tables),
		byID:    make(map[string][]float64),
	}
	for t := 0; t < cfg.Tables; t++ {
		idx.planes[t] = make([][]float64, cfg.Bits)
		idx.offsets[t] = make([]float64, cfg.Bits)
		for b := 0; b < cfg.Bits; b++ {
			plane := make([]float64, cfg.Dim)
			for d := range plane {
				plane[d] = rng.NormFloat64()
			}
			idx.planes[t][b] = plane
			idx.offsets[t][b] = rng.Float64() * cfg.W
		}
		idx.tables[t] = make(map[uint64][]entry)
	}
	return idx, nil
}

// Len returns the number of stored vectors.
func (i *Index) Len() int { return i.count }

func (i *Index) hash(table int, vec []float64) uint64 {
	if i.cfg.Family == PStable {
		// FNV-style mix of the quantized projections.
		h := uint64(1469598103934665603)
		for b, plane := range i.planes[table] {
			var dot float64
			for d, v := range vec {
				dot += v * plane[d]
			}
			q := int64(math.Floor((dot + i.offsets[table][b]) / i.cfg.W))
			h ^= uint64(q)
			h *= 1099511628211
		}
		return h
	}
	var h uint64
	for b, plane := range i.planes[table] {
		var dot float64
		for d, v := range vec {
			dot += v * plane[d]
		}
		if dot >= 0 {
			h |= 1 << uint(b)
		}
	}
	return h
}

// distance applies the family's metric.
func (i *Index) distance(a, b []float64) float64 {
	if i.cfg.Family == PStable {
		var s float64
		for d := range a {
			diff := a[d] - b[d]
			s += diff * diff
		}
		return math.Sqrt(s)
	}
	return cosineDistance(a, b)
}

// Insert stores vec under id. Inserting an existing id replaces its
// vector.
func (i *Index) Insert(id string, vec []float64) error {
	if len(vec) != i.cfg.Dim {
		return fmt.Errorf("lsh: vector dim %d, index dim %d", len(vec), i.cfg.Dim)
	}
	if _, exists := i.byID[id]; exists {
		i.Remove(id)
	}
	cp := append([]float64(nil), vec...)
	for t := range i.tables {
		h := i.hash(t, cp)
		i.tables[t][h] = append(i.tables[t][h], entry{id: id, vec: cp})
	}
	i.byID[id] = cp
	i.count++
	return nil
}

// Remove deletes id from the index. Unknown ids are ignored.
func (i *Index) Remove(id string) {
	vec, ok := i.byID[id]
	if !ok {
		return
	}
	for t := range i.tables {
		h := i.hash(t, vec)
		bucket := i.tables[t][h]
		for j, e := range bucket {
			if e.id == id {
				i.tables[t][h] = append(bucket[:j], bucket[j+1:]...)
				break
			}
		}
		if len(i.tables[t][h]) == 0 {
			delete(i.tables[t], h)
		}
	}
	delete(i.byID, id)
	i.count--
}

// Lookup returns the stored vector for id.
func (i *Index) Lookup(id string) ([]float64, bool) {
	v, ok := i.byID[id]
	return v, ok
}

// Match is one candidate returned by a query, with its cosine distance
// (1 - cosine similarity) from the query vector.
type Match struct {
	ID       string
	Vec      []float64
	Distance float64
}

// Query returns candidates whose buckets collide with vec in any table,
// filtered to cosine distance <= maxDist and sorted ascending by
// distance. It degrades to exact behaviour on small indexes by scanning
// when the candidate set would miss everything.
func (i *Index) Query(vec []float64, maxDist float64) ([]Match, error) {
	if len(vec) != i.cfg.Dim {
		return nil, fmt.Errorf("lsh: query dim %d, index dim %d", len(vec), i.cfg.Dim)
	}
	seen := make(map[string]bool)
	var out []Match
	consider := func(e entry) {
		if seen[e.id] {
			return
		}
		seen[e.id] = true
		d := i.distance(vec, e.vec)
		if d <= maxDist {
			out = append(out, Match{ID: e.id, Vec: e.vec, Distance: d})
		}
	}
	for t := range i.tables {
		h := i.hash(t, vec)
		for _, e := range i.tables[t][h] {
			consider(e)
		}
	}
	sortMatches(out)
	return out, nil
}

// QueryExact linearly scans every stored vector — the ablation baseline
// for the LSH-vs-linear bench and the fallback for exhaustive queries.
func (i *Index) QueryExact(vec []float64, maxDist float64) ([]Match, error) {
	if len(vec) != i.cfg.Dim {
		return nil, fmt.Errorf("lsh: query dim %d, index dim %d", len(vec), i.cfg.Dim)
	}
	var out []Match
	for id, v := range i.byID {
		d := i.distance(vec, v)
		if d <= maxDist {
			out = append(out, Match{ID: id, Vec: v, Distance: d})
		}
	}
	sortMatches(out)
	return out, nil
}

func sortMatches(ms []Match) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Distance != ms[j].Distance {
			return ms[i].Distance < ms[j].Distance
		}
		return ms[i].ID < ms[j].ID
	})
}

func cosineDistance(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 1
	}
	return 1 - dot/(math.Sqrt(na)*math.Sqrt(nb))
}

// MemoryBytes estimates the index's in-memory footprint: plane storage,
// bucket entries, and the id map. Used by the Table 4 experiment.
func (i *Index) MemoryBytes() int64 {
	var total int64
	total += int64(i.cfg.Tables*i.cfg.Bits*i.cfg.Dim) * 8
	for _, v := range i.byID {
		// Vector stored once in byID plus one entry (pointer-sized
		// header + shared slice) per table.
		total += int64(len(v))*8 + 48
		total += int64(i.cfg.Tables) * 40
	}
	return total
}
