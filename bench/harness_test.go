package bench

import (
	"math"
	"testing"
	"time"
)

// Percentiles come from the raw samples, by interpolation between order
// statistics — not from histogram buckets, whose 10 µs floor is why the
// committed BENCH_query.json stage percentiles are interpolation.
func TestPercentilesUseRawSamples(t *testing.T) {
	s := &Samples{Work: 1}
	for i, us := range []float64{0.31, 0.47, 1.9, 2.2, 7.7} {
		s.Raw = append(s.Raw, us*2e-6)
		s.Corr = append(s.Corr, us*1e-6)
		s.Chunks = append(s.Chunks, Chunk{First: i, N: 1, Speed: 0.5})
	}
	if got := s.P50(); got != s.Corr[2] {
		t.Errorf("P50 = %g, want the middle sample %g", got, s.Corr[2])
	}
	if got := s.RawP50(); got != s.Raw[2] {
		t.Errorf("RawP50 = %g, want %g", got, s.Raw[2])
	}
	// An even count interpolates between the two middle samples.
	s.Corr, s.Chunks = s.Corr[:4], s.Chunks[:4]
	if got, want := s.P50(), (s.Corr[1]+s.Corr[2])/2; math.Abs(got-want) > 1e-18 {
		t.Errorf("P50 of four = %g, want %g", got, want)
	}
}

func TestRateAndTailAreMediansOverChunks(t *testing.T) {
	// Three chunks of four operations; the middle one hit a stall.
	s := &Samples{Work: 64}
	for c, lat := range [][]float64{{1, 1, 1, 1}, {1, 1, 1, 9}, {2, 2, 2, 2}} {
		s.Chunks = append(s.Chunks, Chunk{First: 4 * c, N: 4, Speed: 1})
		for _, ms := range lat {
			s.Raw = append(s.Raw, ms*1e-3)
			s.Corr = append(s.Corr, ms*1e-3)
		}
	}
	// Per-chunk rates: 64000, 21333, 32000 items/s.
	if got := s.Rate(); math.Abs(got-32000) > 1e-6 {
		t.Errorf("Rate = %g, want the middle chunk's 32000", got)
	}
	// Per-chunk p95s: 1, 7.8, 2 ms.
	if got := s.P95(); math.Abs(got-2e-3) > 1e-12 {
		t.Errorf("P95 = %g, want the middle chunk's 2e-3", got)
	}
}

func TestStageInterleavesPhasesAndCorrectsEachChunk(t *testing.T) {
	h := NewHarness(nil)
	var order []string
	op := func(name string) Op {
		return func(i int) (time.Duration, error) {
			order = append(order, name)
			return time.Millisecond, nil
		}
	}
	out, err := h.Stage(0,
		Phase{Spec{Name: "a", ChunkOps: 1, MaxOps: 3}, op("a")},
		Phase{Spec{Name: "b", ChunkOps: 2, MaxOps: 6, Turns: 1, Work: 4}, op("b")})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "b", "a", "b", "b", "a", "b", "b"}
	if len(order) != len(want) {
		t.Fatalf("ran %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("ran %v, want %v", order, want)
		}
	}
	a, b := out[0], out[1]
	if len(a.Chunks) != 3 || len(b.Chunks) != 3 || len(b.Raw) != 6 {
		t.Fatalf("a has %d chunks, b has %d chunks of %d samples; want 3, 3 of 6", len(a.Chunks), len(b.Chunks), len(b.Raw))
	}
	for i, c := range b.Chunks {
		if c.N != 2 || c.Speed <= 0 {
			t.Errorf("chunk %d of b: %+v", i, c)
		}
		for j := c.First; j < c.First+c.N; j++ {
			if got, want := b.Corr[j], b.Raw[j]*c.Speed; math.Abs(got-want) > 1e-15 {
				t.Errorf("sample %d of b corrected to %g, want raw × speed = %g", j, got, want)
			}
		}
	}
	// 4 work items per 1 ms operation, corrected by the chunk's speed.
	if got, want := b.RawRate(), 4000.0; math.Abs(got-want) > 1e-6 {
		t.Errorf("RawRate = %g, want %g", got, want)
	}
	if h.ProbeTime <= 0 || len(h.refUS) != 7 {
		t.Errorf("%d probes took %v, want 7 probes (one before, one after each of 6 chunks)", len(h.refUS), h.ProbeTime)
	}
}

func TestOpenEndedPhaseRunsForItsBudgetAndItsMinimum(t *testing.T) {
	h := NewHarness(nil)
	start := time.Now()
	s, err := h.Run(Spec{Name: "spin", MinOps: 10}, 120*time.Millisecond, func(int) (time.Duration, error) {
		return clock(func() error { time.Sleep(200 * time.Microsecond); return nil })
	})
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < 120*time.Millisecond {
		t.Errorf("stage ended after %v, before its budget", took)
	}
	if len(s.Raw) < 10 || len(s.Chunks) < 2 {
		t.Errorf("%d samples in %d chunks, want at least 10 in at least 2", len(s.Raw), len(s.Chunks))
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	got := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if want := (8.25 - 2.75) / 5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %g, want %g", got, want)
	}
}
