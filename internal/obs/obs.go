// Package obs is Sommelier's observability subsystem: a race-safe
// metrics registry (counters, gauges, fixed-bucket latency histograms
// with percentile summaries) and a structured trace facility (span
// events with parent links and monotonic durations), both built on the
// standard library only.
//
// The paper's value claim is quantitative — index-build cost, query
// latency, and the serving-switch tail are all measured results — so
// the hot paths instrument themselves: the catalog's staged indexing
// pipeline, the three-stage query pipeline, the hub's endpoints, and
// the serving simulator all report through an Observer. Every later
// performance PR proves itself against these numbers.
//
// Two design constraints shape the package:
//
//   - Nil safety. Every method on *Observer and on the metric handles
//     it returns tolerates a nil receiver, so instrumented code reads
//     the same whether observation is on or off, and the off path costs
//     one pointer test.
//   - Determinism. The detcheck-critical packages (catalog, index, …)
//     must stay byte-identical for a fixed seed, so they never read the
//     wall clock themselves: the Observer owns a Clock, and a TickClock
//     makes traces fully reproducible in tests — two runs of the same
//     seeded IndexAll produce identical span trees.
package obs

import (
	"context"
	"sync/atomic"
	"time"
)

// Clock supplies monotonic timestamps in nanoseconds. The zero of the
// scale is arbitrary; only differences are meaningful.
type Clock interface {
	NowNanos() int64
}

// wallClock reads the process-monotonic clock (time.Since preserves the
// monotonic reading taken at construction).
type wallClock struct{ base time.Time }

func (c wallClock) NowNanos() int64 { return int64(time.Since(c.base)) }

// NewWallClock returns the default monotonic wall clock.
func NewWallClock() Clock { return wallClock{base: time.Now()} }

// TickClock is a deterministic Clock for tests: every reading advances
// a logical counter by a fixed step, so durations — and therefore trace
// output — are identical across runs regardless of scheduling.
// It is safe for concurrent use.
type TickClock struct {
	now  atomic.Int64
	step int64
}

// NewTickClock returns a TickClock starting at start nanoseconds and
// advancing step nanoseconds per reading. A step <= 0 defaults to 1ms.
func NewTickClock(start, step int64) *TickClock {
	if step <= 0 {
		step = int64(time.Millisecond)
	}
	t := &TickClock{step: step}
	t.now.Store(start)
	return t
}

// NowNanos implements Clock.
func (t *TickClock) NowNanos() int64 { return t.now.Add(t.step) - t.step }

// Option configures an Observer.
type Option func(*Observer)

// WithClock overrides the observer's clock (tests use a TickClock).
func WithClock(c Clock) Option {
	return func(o *Observer) {
		if c != nil {
			o.clock = c
		}
	}
}

// WithTraceCap bounds the tracer's recent-span ring (default
// DefaultTraceCap). n <= 0 disables span recording entirely — metrics
// still work.
func WithTraceCap(n int) Option {
	return func(o *Observer) { o.traceCap = n }
}

// DefaultTraceCap is the default recent-span ring capacity.
const DefaultTraceCap = 4096

// Observer bundles a metrics Registry and a Tracer behind one handle.
// A nil *Observer is valid and disables everything.
type Observer struct {
	clock    Clock
	reg      *Registry
	tracer   *Tracer
	traceCap int
}

// New creates an Observer with a live registry and tracer.
func New(opts ...Option) *Observer {
	o := &Observer{traceCap: DefaultTraceCap}
	for _, opt := range opts {
		opt(o)
	}
	if o.clock == nil {
		o.clock = NewWallClock()
	}
	o.reg = NewRegistry()
	o.tracer = newTracer(o.clock, o.traceCap)
	return o
}

// Registry returns the metrics registry (nil for a nil observer).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Tracer returns the trace facility (nil for a nil observer).
func (o *Observer) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.tracer
}

// Counter returns the named counter, creating it on first use.
func (o *Observer) Counter(name string) *Counter { return o.Registry().Counter(name) }

// Gauge returns the named gauge, creating it on first use.
func (o *Observer) Gauge(name string) *Gauge { return o.Registry().Gauge(name) }

// Histogram returns the named latency histogram (default millisecond
// buckets), creating it on first use.
func (o *Observer) Histogram(name string) *Histogram { return o.Registry().Histogram(name) }

// Snapshot captures every metric the observer knows about. A nil
// observer yields a zero Snapshot.
func (o *Observer) Snapshot() Snapshot { return o.Registry().Snapshot() }

// NowNanos reads the observer's clock; 0 for a nil observer.
func (o *Observer) NowNanos() int64 {
	if o == nil {
		return 0
	}
	return o.clock.NowNanos()
}

// Time starts a latency measurement against the named histogram and
// returns a stop function that records the elapsed milliseconds (and
// returns them, for callers that also report the number elsewhere).
func (o *Observer) Time(hist string) func() float64 {
	if o == nil {
		return func() float64 { return 0 }
	}
	h := o.Histogram(hist)
	start := o.clock.NowNanos()
	return func() float64 {
		ms := float64(o.clock.NowNanos()-start) / 1e6
		h.Observe(ms)
		return ms
	}
}

// TimeOp times one logical operation into the <prefix>_ms histogram
// and counts failed ones into <prefix>_errors_total. Call the returned
// stop function with the operation's final error — the pattern every
// instrumented client op shares:
//
//	done := o.TimeOp("hub_client_load")
//	defer func() { done(err) }()
//
// A nil observer returns a no-op stop without building either name.
func (o *Observer) TimeOp(prefix string) func(error) {
	if o == nil {
		return func(error) {}
	}
	stop := o.Time(prefix + "_ms")
	return func(err error) {
		stop()
		if err != nil {
			o.Counter(prefix + "_errors_total").Inc()
		}
	}
}

// spanCtxKey carries the current span ID through a context.
type spanCtxKey struct{}

// spanParent is the ID of the span ctx carries, 0 for none.
func spanParent(ctx context.Context) uint64 {
	id, _ := ctx.Value(spanCtxKey{}).(uint64)
	return id
}

// StartSpan opens a span named name (with an optional free-form detail)
// under the span already carried by ctx, and returns a context carrying
// the new span for its children. End the span to record it in the
// tracer's ring. A nil observer returns ctx unchanged and a nil span.
func (o *Observer) StartSpan(ctx context.Context, name, detail string) (context.Context, *Span) {
	if o == nil || o.tracer == nil {
		return ctx, nil
	}
	s := o.tracer.start(spanParent(ctx), name, detail)
	return context.WithValue(ctx, spanCtxKey{}, s.rec.ID), &s
}

// StartLeaf opens a span that will have no children: the record
// StartSpan would make under ctx's span, returned by value and without
// deriving a context, so a hot path's innermost stages pay one clock
// read at each end and nothing else. A nil observer returns a zero span,
// whose End is a no-op.
func (o *Observer) StartLeaf(ctx context.Context, name string) Span {
	if o == nil || o.tracer == nil {
		return Span{}
	}
	return o.tracer.start(spanParent(ctx), name, "")
}
