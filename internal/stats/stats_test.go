package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestPercentileKnown(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {-5, 1}, {200, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := Percentile(xs, 50); got != 5 {
		t.Fatalf("Percentile(50) = %g, want 5", got)
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 {
		t.Fatal("Percentile sorted the caller's slice")
	}
}

func TestPercentileEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Percentile(nil, 50)
}

func TestMeanStdMinMax(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Errorf("Mean = %g", Mean(xs))
	}
	if math.Abs(StdDev(xs)-2) > 1e-12 {
		t.Errorf("StdDev = %g", StdDev(xs))
	}
	if Min(xs) != 2 || Max(xs) != 9 {
		t.Errorf("Min/Max = %g/%g", Min(xs), Max(xs))
	}
	if Mean(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Error("degenerate inputs mishandled")
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	s := Summarize(xs)
	if s.N != 100 || s.P50 != 49.5 || s.MinV != 0 || s.MaxV != 99 {
		t.Fatalf("Summary = %+v", s)
	}
	if s.P90 <= s.P50 || s.P99 <= s.P90 {
		t.Fatal("percentiles not ordered")
	}
	if Summarize(nil).N != 0 {
		t.Fatal("empty Summarize should be zero")
	}
	if s.String() == "" {
		t.Fatal("String empty")
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	h := NewHistogram(xs, 5)
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	if total != 10 {
		t.Fatalf("histogram total = %d", total)
	}
	if h.Counts[0] != 2 || h.Counts[4] != 2 {
		t.Fatalf("histogram counts = %v", h.Counts)
	}
	flat := NewHistogram([]float64{5, 5, 5}, 3)
	if flat.Counts[0] != 3 {
		t.Fatalf("flat histogram = %v", flat.Counts)
	}
	if len(NewHistogram(nil, 3).Counts) != 0 {
		t.Fatal("empty histogram should have no counts")
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPropertyPercentileMonotone(t *testing.T) {
	f := func(raw [8]float64, p1, p2 float64) bool {
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		p1 = math.Mod(math.Abs(p1), 100)
		p2 = math.Mod(math.Abs(p2), 100)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		xs := raw[:]
		v1, v2 := Percentile(xs, p1), Percentile(xs, p2)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		return v1 <= v2+1e-9 && v1 >= sorted[0]-1e-9 && v2 <= sorted[len(sorted)-1]+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
