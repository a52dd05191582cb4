package bench

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"sommelier/internal/stats"
)

const (
	// chunkEvery is how long a µs-scale phase runs between two probes.
	chunkEvery = 50 * time.Millisecond
	// A probe is at least minProbeUnits reference units (≈ 2 ms, 4 % of
	// a 50 ms chunk) and grows with the operation it follows to
	// probeShare of that operation's time, up to maxProbeUnits (≈ 15 ms),
	// so that a 300 ms bulk-index batch is not corrected by a glance.
	minProbeUnits = 64
	maxProbeUnits = 512
	probeShare    = 0.05
)

// Harness carries what every timed phase shares: the reference kernel
// behind speed correction, the span recorder (nil unless traced), the
// operation tally behind success_ratio, and the hard checks that ran.
type Harness struct {
	ref   *Ref
	units [maxProbeUnits]float64
	tr    *Tracer

	// ProbeTime and OpTime are the totals over every phase so far; their
	// ratio is the share of time speed correction costs.
	ProbeTime, OpTime time.Duration
	// refUS collects every probe's reading for machine.ref_us.
	refUS []float64

	Attempted, Failed int64
	checks            map[string]int
	problems          []string
}

// NewHarness returns a harness; tr may be nil.
func NewHarness(tr *Tracer) *Harness {
	return &Harness{ref: NewRef(), tr: tr, checks: map[string]int{}}
}

// probe runs one reference probe sized for an operation that took last
// and returns the median cost of a unit in microseconds. The median,
// not the mean: reported latencies are medians of uninterrupted
// operations, and a unit that happened to be preempted says nothing
// about how fast they ran.
func (h *Harness) probe(last time.Duration) float64 {
	n := int(probeShare * float64(last) / float64(RefNominalUS*float64(time.Microsecond)))
	n = min(max(n, minProbeUnits), maxProbeUnits)
	start := time.Now()
	for i := 0; i < n; i++ {
		t := time.Now()
		h.ref.Unit()
		h.units[i] = float64(time.Since(t).Nanoseconds()) / 1e3
	}
	h.ProbeTime += time.Since(start)
	sort.Float64s(h.units[:n])
	us := (h.units[n/2-1] + h.units[n/2]) / 2
	h.refUS = append(h.refUS, us)
	return us
}

// RefUS is the median probe reading so far: what a reference unit
// costs on this machine during this run.
func (h *Harness) RefUS() float64 { return stats.Percentile(h.refUS, 50) }

// Count tallies operations for success_ratio.
func (h *Harness) Count(attempted, failed int) {
	h.Attempted += int64(attempted)
	h.Failed += int64(failed)
}

// Check records one evaluation of a named hard check; a false ok is
// remembered as a problem and fails the run.
func (h *Harness) Check(name string, ok bool, format string, args ...any) {
	h.checks[name]++
	if !ok && len(h.problems) < 20 {
		h.problems = append(h.problems, name+": "+fmt.Sprintf(format, args...))
	}
}

// Chunk is the stretch of a phase between two probes.
type Chunk struct {
	// First and N locate the chunk's operations in Samples.Raw.
	First, N int
	// Speed is RefNominalUS over the mean of the two probes around the
	// chunk: below 1 when the machine ran slower than nominal.
	Speed float64
}

// Samples is what a timed phase measured: one raw latency per
// operation in seconds, the same latencies speed-corrected with the
// probes around them, and the chunks between probes.
type Samples struct {
	Name   string
	Raw    []float64
	Corr   []float64
	Chunks []Chunk
	// Work is the number of work items each operation completes (8 for
	// a bulk-index batch of 8 models, 64 for a query batch); rates are
	// in work items.
	Work int
}

// Spec sizes one timed phase: exactly MaxOps operations (a phase over a
// finite input), or, with MaxOps zero, until the stage's time is up and
// MinOps operations have completed.
type Spec struct {
	Name   string
	MinOps int
	MaxOps int
	// ChunkOps puts a probe after every ChunkOps operations (1 for
	// ms-scale operations); 0 probes every chunkEvery instead.
	ChunkOps int
	// Work is the work items per operation; 0 means 1.
	Work int
	// Turns is how many chunks in a row the phase gets each time a
	// stage comes round to it; 0 means 1. It sets the phase's share of
	// the stage's time.
	Turns int
}

// Op is one operation of a phase. It receives the operation's index
// and returns the time its measured call took (see clock), so it can
// prepare inputs and check outputs outside that time.
type Op func(i int) (time.Duration, error)

// Phase is a spec with the operation it times.
type Phase struct {
	Spec
	Op Op
}

// Stage runs phases in a closed loop from this one goroutine — the next
// operation starts when the last returned — taking turns: a chunk of
// the first phase, a probe, a chunk of the second, a probe, and round
// again. Interleaving, rather than one phase after another, spreads
// every phase's samples over the whole stage, so a slow stretch of the
// machine slows a few chunks of every metric and not the whole of one.
// The stage ends when every MaxOps phase is through its input and, if
// any phase is open-ended, budget has passed and each has its MinOps.
// Probes sit between chunks, never inside an operation. An error stops
// the stage.
func (h *Harness) Stage(budget time.Duration, phases ...Phase) ([]*Samples, error) {
	out := make([]*Samples, len(phases))
	for i, p := range phases {
		out[i] = &Samples{Name: p.Name, Work: max(p.Work, 1)}
	}
	done := func(i int) bool {
		p, s := phases[i], out[i]
		if p.MaxOps > 0 {
			return len(s.Raw) >= p.MaxOps
		}
		return false
	}
	runtime.GC()
	before := h.probe(0)
	start := time.Now()
	for {
		finite, open, ready := false, false, true
		for i, p := range phases {
			if p.MaxOps > 0 {
				finite = finite || !done(i)
			} else {
				open = true
				ready = ready && len(out[i].Raw) >= p.MinOps
			}
		}
		if !finite && (!open || (ready && time.Since(start) >= budget)) {
			return out, nil
		}
		for i, p := range phases {
			s := out[i]
			for turn := 0; turn < max(p.Turns, 1) && !done(i); turn++ {
				c := Chunk{First: len(s.Raw)}
				chunkStart := time.Now()
				for {
					d, err := p.Op(len(s.Raw))
					if err != nil {
						return nil, fmt.Errorf("%s op %d: %w", p.Name, len(s.Raw), err)
					}
					s.Raw = append(s.Raw, d.Seconds())
					if done(i) || len(s.Raw)-c.First == p.ChunkOps || (p.ChunkOps == 0 && time.Since(chunkStart) >= chunkEvery) {
						break
					}
				}
				last := time.Since(chunkStart)
				h.OpTime += last
				after := h.probe(last)
				c.N = len(s.Raw) - c.First
				c.Speed = RefNominalUS / ((before + after) / 2)
				before = after
				for _, raw := range s.Raw[c.First:] {
					s.Corr = append(s.Corr, raw*c.Speed)
				}
				s.Chunks = append(s.Chunks, c)
			}
		}
	}
}

// Run is a stage of one phase.
func (h *Harness) Run(spec Spec, budget time.Duration, op Op) (*Samples, error) {
	out, err := h.Stage(budget, Phase{spec, op})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// clock times one call.
func clock(f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	return time.Since(start), err
}

// P50 is the median speed-corrected latency in seconds, over the raw
// samples: no histogram, no buckets.
func (s *Samples) P50() float64 { return stats.Percentile(s.Corr, 50) }

// RawP50 is the median uncorrected latency in seconds.
func (s *Samples) RawP50() float64 { return stats.Percentile(s.Raw, 50) }

// P95 is the 95th percentile of the speed-corrected latencies: the
// median over chunks of each chunk's own p95 (a chunk of a µs-scale
// phase holds hundreds of samples), so that a stall costs the chunks it
// hit, not the whole run's tail.
func (s *Samples) P95() float64 { return s.tail(s.Corr, 95) }

// RawP95 is P95 over the uncorrected latencies.
func (s *Samples) RawP95() float64 { return s.tail(s.Raw, 95) }

// P99 is a diagnostic only: too few samples lie beyond it to gate on.
func (s *Samples) P99() float64 { return s.tail(s.Corr, 99) }

func (s *Samples) tail(vals []float64, p float64) float64 {
	per := make([]float64, 0, len(s.Chunks))
	for _, c := range s.Chunks {
		per = append(per, stats.Percentile(vals[c.First:c.First+c.N], p))
	}
	return stats.Percentile(per, 50)
}

// Rate is the closed-loop rate of one client in work items per
// speed-corrected second: the median over chunks of items completed ÷
// time spent in operations. RawRate is the same, uncorrected.
func (s *Samples) Rate() float64    { return s.rate(s.Corr) }
func (s *Samples) RawRate() float64 { return s.rate(s.Raw) }

func (s *Samples) rate(vals []float64) float64 {
	per := make([]float64, 0, len(s.Chunks))
	for _, c := range s.Chunks {
		var sum float64
		for _, v := range vals[c.First : c.First+c.N] {
			sum += v
		}
		per = append(per, float64(c.N*s.Work)/sum)
	}
	return stats.Percentile(per, 50)
}

// allocPerOp runs op n times with nothing else running and returns the
// bytes and objects allocated per call, from runtime.MemStats.
func allocPerOp(n int, op func(i int) error) (bytes float64, objects float64, err error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if err := op(i); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
		float64(after.Mallocs-before.Mallocs) / float64(n), nil
}
