package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync/atomic"
)

// Histogram is a fixed-bucket histogram with lock-free observation:
// every Observe is a handful of atomic adds, so the query and indexing
// hot paths can record latencies without contending. Bucket bounds are
// fixed at construction; percentiles are estimated by linear
// interpolation inside the owning bucket, with the tracked minimum and
// maximum tightening the first and last occupied buckets.
//
// Readers (Summary, Quantile) see each atomic individually, so a
// summary taken during concurrent writes is approximate — counts may
// be mid-update — which is the usual and accepted histogram contract.
type Histogram struct {
	// bounds are the inclusive upper bounds of the first len(bounds)
	// buckets, ascending; one overflow bucket follows. Immutable.
	bounds []float64
	counts []atomic.Int64

	count  atomic.Int64
	sumBit atomic.Uint64 // math.Float64bits of the running sum
	minBit atomic.Uint64 // math.Float64bits of the observed minimum
	maxBit atomic.Uint64 // math.Float64bits of the observed maximum
}

// DefaultLatencyBounds returns the default millisecond bucket bounds:
// 1-2-5 steps from 0.1µs to 100s. Fine enough for the sub-microsecond
// stages of a whole query that takes under 2µs, wide enough for
// multi-second index builds.
func DefaultLatencyBounds() []float64 {
	var bounds []float64
	for _, mag := range []float64{0.0001, 0.001, 0.01, 0.1, 1, 10, 100, 1000, 10000} {
		for _, step := range []float64{1, 2, 5} {
			bounds = append(bounds, mag*step)
		}
	}
	return append(bounds, 100000)
}

// NewHistogram builds a histogram with the given ascending upper
// bounds. It panics on unsorted or empty bounds — bucket layouts are
// static configuration, not data.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at %d", i))
		}
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	h.minBit.Store(math.Float64bits(math.Inf(1)))
	h.maxBit.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one value. NaN is ignored. Nil-receiver tolerant.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	h.counts[h.bucketOf(v)].Add(1)
	h.count.Add(1)
	atomicAddFloat(&h.sumBit, v)
	atomicMinFloat(&h.minBit, v)
	atomicMaxFloat(&h.maxBit, v)
}

// bucketOf returns the index of the bucket owning v (binary search over
// the upper bounds; the last index is the overflow bucket).
func (h *Histogram) bucketOf(v float64) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBit.Load())
}

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() float64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.minBit.Load())
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() float64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.maxBit.Load())
}

// Quantile estimates the q-th quantile (0..1). Within the owning bucket
// the mass is assumed uniform; the observed min and max bound the
// estimate, so a single-sample histogram reports that sample exactly.
// An empty histogram returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	min, max := h.Min(), h.Max()

	var cum int64
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			continue
		}
		if float64(cum)+float64(n) < rank {
			cum += n
			continue
		}
		// The rank falls in bucket i: interpolate across its span.
		lo := min
		if i > 0 && h.bounds[i-1] > lo {
			lo = h.bounds[i-1]
		}
		hi := max
		if i < len(h.bounds) && h.bounds[i] < hi {
			hi = h.bounds[i]
		}
		if hi <= lo {
			return lo
		}
		frac := (rank - float64(cum)) / float64(n)
		return lo + (hi-lo)*frac
	}
	return max
}

// Merge adds o's observations into h. Both histograms must share bucket
// bounds; merging different layouts is a configuration error.
func (h *Histogram) Merge(o *Histogram) error {
	if h == nil || o == nil {
		return nil
	}
	if len(h.bounds) != len(o.bounds) {
		return fmt.Errorf("obs: merging histograms with %d vs %d bounds", len(h.bounds), len(o.bounds))
	}
	for i, b := range h.bounds {
		if o.bounds[i] != b {
			return fmt.Errorf("obs: merging histograms with mismatched bound %d (%g vs %g)", i, b, o.bounds[i])
		}
	}
	if o.count.Load() == 0 {
		return nil
	}
	for i := range o.counts {
		h.counts[i].Add(o.counts[i].Load())
	}
	h.count.Add(o.count.Load())
	atomicAddFloat(&h.sumBit, o.Sum())
	atomicMinFloat(&h.minBit, math.Float64frombits(o.minBit.Load()))
	atomicMaxFloat(&h.maxBit, math.Float64frombits(o.maxBit.Load()))
	return nil
}

// Bucket is one histogram bucket in a summary: the count of values at
// or below the upper bound that earlier buckets did not claim. The
// overflow bucket carries an infinite bound, rendered as "+Inf".
type Bucket struct {
	LE    float64 `json:"le"`
	Count int64   `json:"count"`
}

// MarshalJSON renders the bound as a string so the overflow bucket's
// +Inf survives JSON (which has no infinity literal).
func (b Bucket) MarshalJSON() ([]byte, error) {
	le := "+Inf"
	if !math.IsInf(b.LE, 1) {
		le = strconv.FormatFloat(b.LE, 'g', -1, 64)
	}
	return []byte(fmt.Sprintf(`{"le":%q,"count":%d}`, le, b.Count)), nil
}

// UnmarshalJSON reverses MarshalJSON so snapshots round-trip — a
// /v1/metrics consumer can decode straight back into a Snapshot.
func (b *Bucket) UnmarshalJSON(data []byte) error {
	var raw struct {
		LE    string `json:"le"`
		Count int64  `json:"count"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	if raw.LE == "+Inf" {
		b.LE = math.Inf(1)
	} else {
		le, err := strconv.ParseFloat(raw.LE, 64)
		if err != nil {
			return fmt.Errorf("bucket bound %q: %w", raw.LE, err)
		}
		b.LE = le
	}
	b.Count = raw.Count
	return nil
}

// HistSummary is the JSON-exportable digest of a histogram.
type HistSummary struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	// Buckets lists only occupied buckets, keeping snapshots compact.
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Summary digests the histogram. A nil or empty histogram yields a zero
// summary.
func (h *Histogram) Summary() HistSummary {
	if h == nil {
		return HistSummary{}
	}
	n := h.count.Load()
	if n == 0 {
		return HistSummary{}
	}
	s := HistSummary{
		Count: n,
		Sum:   h.Sum(),
		Min:   h.Min(),
		Max:   h.Max(),
		Mean:  h.Sum() / float64(n),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		le := math.Inf(1)
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		s.Buckets = append(s.Buckets, Bucket{LE: le, Count: c})
	}
	return s
}

// atomicAddFloat adds delta to a float64 stored as bits, via CAS.
func atomicAddFloat(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// atomicMinFloat lowers the stored float64 to v if v is smaller.
func atomicMinFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// atomicMaxFloat raises the stored float64 to v if v is larger.
func atomicMaxFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}
