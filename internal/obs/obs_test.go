package obs

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestNilObserverIsInert(t *testing.T) {
	var o *Observer
	o.Counter("x").Inc()
	o.Gauge("g").Set(5)
	o.Histogram("h").Observe(1)
	stop := o.Time("h")
	if ms := stop(); ms != 0 {
		t.Errorf("nil Time stop = %g, want 0", ms)
	}
	ctx, span := o.StartSpan(context.Background(), "op", "")
	if ctx == nil {
		t.Fatal("nil observer returned nil ctx")
	}
	if ms := span.End(); ms != 0 {
		t.Errorf("nil span End = %g, want 0", ms)
	}
	snap := o.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Errorf("nil Snapshot = %+v, want zero", snap)
	}
}

func TestRegistryHandlesAreStable(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Error("Counter returned distinct handles for one name")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Error("Histogram returned distinct handles for one name")
	}
}

func TestSnapshotIncludesGaugeFuncs(t *testing.T) {
	o := New(WithClock(NewTickClock(0, 1e6)))
	o.Counter("reqs").Add(3)
	o.Gauge("depth").Set(7)
	o.Registry().GaugeFunc("breaker_opens", func() int64 { return 42 })
	o.Histogram("lat_ms").Observe(2.5)

	snap := o.Snapshot()
	if snap.Counters["reqs"] != 3 {
		t.Errorf("Counters[reqs] = %d", snap.Counters["reqs"])
	}
	if snap.Gauges["depth"] != 7 || snap.Gauges["breaker_opens"] != 42 {
		t.Errorf("Gauges = %v", snap.Gauges)
	}
	if snap.Histograms["lat_ms"].Count != 1 {
		t.Errorf("Histograms[lat_ms] = %+v", snap.Histograms["lat_ms"])
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Errorf("snapshot does not marshal: %v", err)
	}
}

func TestTimeObservesElapsed(t *testing.T) {
	// Tick clock: 1ms per reading, so start→stop spans exactly one step.
	o := New(WithClock(NewTickClock(0, 1e6)))
	stop := o.Time("op_ms")
	if ms := stop(); ms != 1 {
		t.Errorf("stop = %gms, want 1", ms)
	}
	if got := o.Histogram("op_ms").Count(); got != 1 {
		t.Errorf("histogram count = %d, want 1", got)
	}
}

func TestSpanParentageThroughContext(t *testing.T) {
	o := New(WithClock(NewTickClock(0, 1e6)))
	ctx, root := o.StartSpan(context.Background(), "root", "")
	_, child := o.StartSpan(ctx, "child", "x")
	child.End()
	root.End()

	spans := o.Tracer().Recent()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	// Ring order is completion order: child first.
	if spans[0].Name != "child" || spans[0].Parent != root.ID() {
		t.Errorf("child span = %+v, want parent %d", spans[0], root.ID())
	}
	if spans[1].Name != "root" || spans[1].Parent != 0 {
		t.Errorf("root span = %+v", spans[1])
	}
	want := "root\n  child [x]\n"
	if got := o.Tracer().TreeString(); got != want {
		t.Errorf("TreeString = %q, want %q", got, want)
	}
}

func TestTracerRingEviction(t *testing.T) {
	o := New(WithClock(NewTickClock(0, 1e6)), WithTraceCap(2))
	for i, name := range []string{"a", "b", "c"} {
		_, s := o.StartSpan(context.Background(), name, "")
		s.End()
		_ = i
	}
	spans := o.Tracer().Recent()
	if len(spans) != 2 || spans[0].Name != "b" || spans[1].Name != "c" {
		t.Errorf("Recent after eviction = %+v, want [b c]", spans)
	}
}

func TestTraceCapZeroDisablesRecording(t *testing.T) {
	o := New(WithTraceCap(0))
	_, s := o.StartSpan(context.Background(), "op", "")
	s.End()
	if got := o.Tracer().Recent(); len(got) != 0 {
		t.Errorf("Recent = %v, want empty", got)
	}
}

// TestDisabledTracerTakesNoLock: with recording off, ending a span
// reads the capacity newTracer fixed and never the ring's mutex, so it
// completes while another goroutine holds that mutex; concurrent ends
// on an enabled and a disabled tracer stay clean under -race.
func TestDisabledTracerTakesNoLock(t *testing.T) {
	off, on := New(WithTraceCap(0)), New(WithTraceCap(4))
	tr := off.Tracer()
	tr.mu.Lock()
	ended := make(chan struct{})
	go func() {
		defer close(ended)
		_, s := off.StartSpan(context.Background(), "op", "")
		s.End()
	}()
	select {
	case <-ended:
	case <-time.After(10 * time.Second):
		t.Fatal("Span.End on a tracer with recording off waited for the ring's mutex")
	}
	tr.mu.Unlock()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				for _, o := range []*Observer{off, on} {
					_, s := o.StartSpan(context.Background(), "op", "")
					s.End()
				}
				on.Tracer().Recent()
			}
		}()
	}
	wg.Wait()
	if got := off.Tracer().Recent(); len(got) != 0 {
		t.Errorf("disabled tracer recorded %d spans", len(got))
	}
	if got := on.Tracer().Recent(); len(got) != 4 {
		t.Errorf("tracer of capacity 4 holds %d spans", len(got))
	}
}

func TestTreeStringCanonicalOrder(t *testing.T) {
	// Two observers finish sibling spans in opposite orders; the
	// canonical tree must not care.
	build := func(first, second string) string {
		o := New(WithClock(NewTickClock(0, 1e6)))
		ctx, root := o.StartSpan(context.Background(), "indexall", "")
		_, a := o.StartSpan(ctx, "analyze", first)
		a.End()
		_, b := o.StartSpan(ctx, "analyze", second)
		b.End()
		root.End()
		return o.Tracer().TreeString()
	}
	if build("m1", "m2") != build("m2", "m1") {
		t.Error("TreeString depends on completion order")
	}
}

func TestConcurrentRegistryAccess(t *testing.T) {
	o := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				o.Counter("c").Inc()
				o.Gauge("g").Add(1)
				o.Histogram("h").Observe(float64(i))
				_, s := o.StartSpan(context.Background(), "op", "")
				s.End()
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			o.Snapshot()
			o.Tracer().Recent()
		}
	}()
	wg.Wait()
	<-done
	if got := o.Counter("c").Value(); got != 8*500 {
		t.Errorf("counter = %d, want %d", got, 8*500)
	}
}

// TestStartLeafRecordsWhatStartSpanDoes: a leaf span is the record
// StartSpan would make under the same parent — name, parent link, one
// clock read at each end — without a derived context; a nil observer's
// leaf is a no-op.
func TestStartLeafRecordsWhatStartSpanDoes(t *testing.T) {
	run := func(leaf bool) []SpanRecord {
		o := New(WithClock(NewTickClock(0, 1e6)))
		ctx, root := o.StartSpan(context.Background(), "query", "")
		if leaf {
			s := o.StartLeaf(ctx, "parse")
			s.End()
		} else {
			_, s := o.StartSpan(ctx, "parse", "")
			s.End()
		}
		root.End()
		return o.Tracer().Recent()
	}
	got, want := run(true), run(false)
	if len(got) != 2 || len(want) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("leaf spans %+v, StartSpan spans %+v", got, want)
	}
	if got[0].Parent != got[1].ID || got[0].DurNS != 1e6 {
		t.Errorf("leaf %+v under root %+v: want parent link and one tick", got[0], got[1])
	}
	var off *Observer
	s := off.StartLeaf(context.Background(), "parse")
	if ms := s.End(); ms != 0 {
		t.Errorf("nil observer leaf End = %g, want 0", ms)
	}
}
