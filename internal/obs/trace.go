package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// SpanRecord is one finished span: a named interval with a parent link.
// IDs are process-local and only meaningful for reassembling trees.
type SpanRecord struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Detail is free-form context (a model ID, an HTTP method) that
	// participates in deterministic tree ordering.
	Detail  string `json:"detail,omitempty"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// Span is an open interval. End it exactly once; a nil or zero span
// (observer disabled) no-ops throughout.
type Span struct {
	t   *Tracer
	rec SpanRecord
}

// End closes the span, records it in the tracer's ring, and returns its
// duration in milliseconds.
func (s *Span) End() float64 {
	if s == nil || s.t == nil {
		return 0
	}
	s.rec.DurNS = s.t.clock.NowNanos() - s.rec.StartNS
	s.t.record(s.rec)
	return float64(s.rec.DurNS) / 1e6
}

// ID returns the span's ID (0 for nil), for explicit parenting when a
// context cannot carry the span (goroutine fan-out with shared ctx).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.rec.ID
}

// Tracer records finished spans into a fixed-capacity ring — enough for
// a "recent activity" endpoint without unbounded growth. A nil *Tracer
// is valid and records nothing.
type Tracer struct {
	clock  Clock
	nextID atomic.Uint64
	// cap is the ring's capacity, fixed by newTracer; 0 disables
	// recording, so a disabled tracer's record never takes mu.
	cap int

	mu   sync.Mutex
	ring []SpanRecord // guarded by mu
	next int          // guarded by mu
}

// newTracer builds a tracer with capacity cap; cap <= 0 disables
// recording (start still hands out spans so timings work).
func newTracer(clock Clock, cap int) *Tracer {
	t := &Tracer{clock: clock}
	if cap > 0 {
		t.cap, t.ring = cap, make([]SpanRecord, 0, cap)
	}
	return t
}

// start opens a span. Exposed through Observer.StartSpan, which also
// threads the parent through a context, and Observer.StartLeaf, which
// does not.
func (t *Tracer) start(parent uint64, name, detail string) Span {
	return Span{t: t, rec: SpanRecord{
		ID:      t.nextID.Add(1),
		Parent:  parent,
		Name:    name,
		Detail:  detail,
		StartNS: t.clock.NowNanos(),
	}}
}

func (t *Tracer) record(rec SpanRecord) {
	if t == nil || t.cap == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.ring) < t.cap {
		t.ring = append(t.ring, rec)
	} else {
		t.ring[t.next] = rec
		t.next = (t.next + 1) % t.cap
	}
}

// Recent returns the ring's contents, oldest first. The slice is a
// copy, safe to hold.
func (t *Tracer) Recent() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// TreeString renders the recorded spans as an indented forest with
// durations excluded and siblings sorted by (name, detail) — a
// scheduling-independent canonical form. Two runs of the same seeded
// workload must render identical trees; that invariant is what keeps
// tracing out of the determinism contract's way.
func (t *Tracer) TreeString() string {
	spans := t.Recent()
	children := make(map[uint64][]SpanRecord)
	known := make(map[uint64]bool, len(spans))
	for _, s := range spans {
		known[s.ID] = true
	}
	var roots []SpanRecord
	for _, s := range spans {
		// A span whose parent was evicted from the ring renders as a
		// root rather than vanishing.
		if s.Parent != 0 && known[s.Parent] {
			children[s.Parent] = append(children[s.Parent], s)
		} else {
			roots = append(roots, s)
		}
	}
	canonical := func(ss []SpanRecord) {
		sort.SliceStable(ss, func(i, j int) bool {
			if ss[i].Name != ss[j].Name {
				return ss[i].Name < ss[j].Name
			}
			return ss[i].Detail < ss[j].Detail
		})
	}
	canonical(roots)
	for _, cs := range children {
		canonical(cs)
	}
	var b strings.Builder
	var render func(s SpanRecord, depth int)
	render = func(s SpanRecord, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(s.Name)
		if s.Detail != "" {
			fmt.Fprintf(&b, " [%s]", s.Detail)
		}
		b.WriteByte('\n')
		for _, c := range children[s.ID] {
			render(c, depth+1)
		}
	}
	for _, r := range roots {
		render(r, 0)
	}
	return b.String()
}
