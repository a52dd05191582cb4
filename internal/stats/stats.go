// Package stats provides the small statistical toolkit the experiment
// harness uses: percentiles, summaries and histograms.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between order statistics. It panics on an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: Percentile of empty slice")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, v := range xs {
		d := v - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Min returns the smallest value. It panics on an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, v := range xs[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest value. It panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, v := range xs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Summary bundles the statistics the experiment tables print.
type Summary struct {
	N             int
	Mean, Std     float64
	MinV, MaxV    float64
	P50, P90, P99 float64
}

// Summarize computes a Summary of xs. It returns a zero Summary for empty
// input.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	return Summary{
		N:    len(xs),
		Mean: Mean(xs),
		Std:  StdDev(xs),
		MinV: Min(xs),
		MaxV: Max(xs),
		P50:  Percentile(xs, 50),
		P90:  Percentile(xs, 90),
		P99:  Percentile(xs, 99),
	}
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g std=%.4g min=%.4g p50=%.4g p90=%.4g p99=%.4g max=%.4g",
		s.N, s.Mean, s.Std, s.MinV, s.P50, s.P90, s.P99, s.MaxV)
}

// Histogram counts xs into nbins equal-width bins spanning [min, max].
type Histogram struct {
	Lo, Hi float64
	Counts []int
}

// NewHistogram builds a histogram of xs with nbins bins.
func NewHistogram(xs []float64, nbins int) Histogram {
	if nbins <= 0 || len(xs) == 0 {
		return Histogram{}
	}
	h := Histogram{Lo: Min(xs), Hi: Max(xs), Counts: make([]int, nbins)}
	span := h.Hi - h.Lo
	if span == 0 {
		h.Counts[0] = len(xs)
		return h
	}
	for _, v := range xs {
		b := int(float64(nbins) * (v - h.Lo) / span)
		if b >= nbins {
			b = nbins - 1
		}
		h.Counts[b]++
	}
	return h
}
