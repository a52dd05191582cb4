package obs

import (
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count. All methods are
// safe for concurrent use and tolerate a nil receiver.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored — counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous integer level (queue depth, busy workers,
// breaker state). Safe for concurrent use; nil-receiver tolerant.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the level.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the level by delta (negative allowed).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry holds named metrics. Handles are created on first use and
// live for the registry's lifetime, so hot paths resolve a handle once
// and update it with a single atomic op. A nil *Registry is valid and
// returns nil handles throughout.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter     // guarded by mu
	gauges   map[string]*Gauge       // guarded by mu
	gaugeFns map[string]func() int64 // guarded by mu
	hists    map[string]*Histogram   // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		gaugeFns: make(map[string]func() int64),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a callback evaluated at Snapshot time — the hook
// components with their own internal counters (hub client breaker
// state, cache population) use to join the unified snapshot without
// double-bookkeeping. Re-registering a name replaces the callback.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFns[name] = fn
}

// Histogram returns the named histogram with the default latency
// buckets, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	return r.histogram(name, nil)
}

// HistogramWith returns the named histogram, creating it with the given
// bucket upper bounds on first use (an existing histogram keeps its
// original bounds).
func (r *Registry) HistogramWith(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.histogram(name, bounds)
}

func (r *Registry) histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		if bounds == nil {
			bounds = DefaultLatencyBounds()
		}
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot is the JSON-exportable state of a registry at one instant —
// the unified shape /v1/metrics serves and sommbench archives. Gauge
// callbacks are folded into Gauges.
type Snapshot struct {
	Counters   map[string]int64       `json:"counters,omitempty"`
	Gauges     map[string]int64       `json:"gauges,omitempty"`
	Histograms map[string]HistSummary `json:"histograms,omitempty"`
}

// Snapshot captures every registered metric. A nil registry yields a
// zero Snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	fns := make(map[string]func() int64, len(r.gaugeFns))
	for k, v := range r.gaugeFns {
		fns[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	// Values are read outside the registry lock: gauge callbacks may
	// themselves take locks (hub client internals), and metric reads
	// are lock-free anyway.
	snap := Snapshot{
		Counters:   make(map[string]int64, len(counters)),
		Gauges:     make(map[string]int64, len(gauges)+len(fns)),
		Histograms: make(map[string]HistSummary, len(hists)),
	}
	for k, c := range counters {
		snap.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		snap.Gauges[k] = g.Value()
	}
	for k, fn := range fns {
		snap.Gauges[k] = fn()
	}
	for k, h := range hists {
		snap.Histograms[k] = h.Summary()
	}
	return snap
}
