package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(DefaultLatencyBounds())
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile(0.5) = %g, want 0", got)
	}
	s := h.Summary()
	if s.Count != 0 || s.Sum != 0 || s.P99 != 0 || len(s.Buckets) != 0 {
		t.Errorf("empty Summary = %+v, want zero", s)
	}
	if h.Min() != 0 || h.Max() != 0 {
		t.Errorf("empty Min/Max = %g/%g, want 0/0", h.Min(), h.Max())
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(1) // must not panic
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Error("nil histogram should read as empty")
	}
	if err := h.Merge(NewHistogram([]float64{1})); err != nil {
		t.Errorf("nil Merge: %v", err)
	}
}

func TestHistogramSingleSample(t *testing.T) {
	h := NewHistogram(DefaultLatencyBounds())
	h.Observe(3.7)
	// With one sample, min == max bound the owning bucket, so every
	// quantile reports the sample exactly.
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if got := h.Quantile(q); got != 3.7 {
			t.Errorf("Quantile(%g) = %g, want 3.7", q, got)
		}
	}
	s := h.Summary()
	if s.Count != 1 || s.Sum != 3.7 || s.Mean != 3.7 || s.Min != 3.7 || s.Max != 3.7 {
		t.Errorf("Summary = %+v", s)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 5})
	// A value exactly on a bound belongs to the bucket it bounds
	// (inclusive upper bounds).
	for i, v := range []float64{1, 2, 5} {
		h.Observe(v)
		if got := h.counts[i].Load(); got != 1 {
			t.Errorf("Observe(%g): bucket %d count = %d, want 1", v, i, got)
		}
	}
	// Overflow goes to the last bucket.
	h.Observe(5.001)
	if got := h.counts[3].Load(); got != 1 {
		t.Errorf("overflow bucket count = %d, want 1", got)
	}
	if h.Max() != 5.001 {
		t.Errorf("Max = %g, want 5.001", h.Max())
	}
	// The overflow bucket's quantile estimate is clamped by Max, never
	// infinite.
	if q := h.Quantile(1); math.IsInf(q, 0) || q != 5.001 {
		t.Errorf("Quantile(1) = %g, want 5.001", q)
	}
}

func TestHistogramQuantileInterpolation(t *testing.T) {
	h := NewHistogram([]float64{10, 20})
	// 10 samples uniform in (10, 20]: quantiles interpolate inside the
	// second bucket between its clamped ends.
	for i := 1; i <= 10; i++ {
		h.Observe(10 + float64(i))
	}
	p50 := h.Quantile(0.5)
	if p50 < 11 || p50 > 20 {
		t.Errorf("p50 = %g outside bucket span (11..20)", p50)
	}
	if h.Quantile(1) != 20 {
		t.Errorf("Quantile(1) = %g, want max 20", h.Quantile(1))
	}
	if h.Quantile(0) != 11 {
		t.Errorf("Quantile(0) = %g, want min 11", h.Quantile(0))
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram([]float64{1, 10, 100})
	b := NewHistogram([]float64{1, 10, 100})
	a.Observe(0.5)
	a.Observe(50)
	b.Observe(5)
	b.Observe(200)
	if err := a.Merge(b); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if a.Count() != 4 {
		t.Errorf("merged Count = %d, want 4", a.Count())
	}
	if got, want := a.Sum(), 255.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("merged Sum = %g, want %g", got, want)
	}
	if a.Min() != 0.5 || a.Max() != 200 {
		t.Errorf("merged Min/Max = %g/%g, want 0.5/200", a.Min(), a.Max())
	}

	// Merging an empty histogram is a no-op, even for min/max.
	if err := a.Merge(NewHistogram([]float64{1, 10, 100})); err != nil {
		t.Fatalf("Merge empty: %v", err)
	}
	if a.Count() != 4 || a.Min() != 0.5 || a.Max() != 200 {
		t.Error("merge of empty histogram changed state")
	}

	// Mismatched layouts refuse.
	if err := a.Merge(NewHistogram([]float64{1, 10})); err == nil {
		t.Error("Merge accepted mismatched bound count")
	}
	c := NewHistogram([]float64{1, 10, 99})
	if err := a.Merge(c); err == nil {
		t.Error("Merge accepted mismatched bound value")
	}
}

func TestHistogramSummaryJSON(t *testing.T) {
	h := NewHistogram([]float64{1, 10})
	h.Observe(0.5)
	h.Observe(100) // overflow bucket: +Inf bound must survive JSON
	data, err := json.Marshal(h.Summary())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if !strings.Contains(string(data), `"le":"+Inf"`) {
		t.Errorf("JSON missing +Inf bucket: %s", data)
	}
	if !strings.Contains(string(data), `"count":2`) {
		t.Errorf("JSON missing total count: %s", data)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(DefaultLatencyBounds())
	var wg sync.WaitGroup
	const writers, per = 8, 1000
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(w*per+i) / 100)
			}
		}()
	}
	wg.Wait()
	if h.Count() != writers*per {
		t.Errorf("Count = %d, want %d", h.Count(), writers*per)
	}
	var bucketSum int64
	for i := range h.counts {
		bucketSum += h.counts[i].Load()
	}
	if bucketSum != writers*per {
		t.Errorf("bucket sum = %d, want %d", bucketSum, writers*per)
	}
}

func TestNewHistogramValidation(t *testing.T) {
	for _, bounds := range [][]float64{nil, {}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

// TestDefaultBoundsResolveMicroseconds: a query stage takes a fraction
// of a microsecond, so the default buckets must resolve sub-µs samples
// rather than interpolate them all inside one 10µs bucket. Ten samples
// each of 0.3, 1.5 and 4µs must read back within one 1-2-5 step.
func TestDefaultBoundsResolveMicroseconds(t *testing.T) {
	h := NewHistogram(DefaultLatencyBounds())
	for i := 0; i < 10; i++ {
		for _, us := range []float64{0.3, 1.5, 4} {
			h.Observe(us / 1e3)
		}
	}
	for _, c := range []struct{ q, lo, hi float64 }{
		{0.1, 0.2, 0.5}, // truth 0.3µs
		{0.5, 1, 2},     // truth 1.5µs
		{0.9, 2, 5},     // truth 4µs
	} {
		if got := h.Quantile(c.q) * 1e3; got < c.lo || got > c.hi {
			t.Errorf("p%g = %.3gµs, want within [%g, %g]µs", c.q*100, got, c.lo, c.hi)
		}
	}
}
