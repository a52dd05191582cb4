package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one recorded call into a layer's public function. Spans are
// taken here in bench/, around the calls the harness itself makes;
// spans inside the program are a later issue.
type Span struct {
	ID int `json:"id"`
	// Parent is the span that caused this one, -1 for an operation's
	// root span.
	Parent int `json:"parent"`
	// Op identifies the operation; all spans of one operation share it.
	Op int `json:"op"`
	// Name is "<layer>.<call>"; the part before the first dot is the
	// layer the accounting table charges.
	Name string `json:"name"`
	// StartUS and EndUS are microseconds since the tracer was made.
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// Dur is the span's length in microseconds.
func (s Span) Dur() float64 { return s.EndUS - s.StartUS }

// Tracer keeps spans in memory until the run ends. A nil *Tracer
// records nothing, so untraced runs pay one nil check per call.
type Tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
	ops   int
}

// NewTracer starts an empty trace.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// NewOp returns a fresh operation id.
func (t *Tracer) NewOp() int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// Start opens a span and returns its id; End closes it.
func (t *Tracer) Start(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := float64(time.Since(t.epoch).Nanoseconds()) / 1e3
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans), Parent: parent, Op: op, Name: name, StartUS: now, EndUS: now})
	return len(t.spans) - 1
}

// End closes the span.
func (t *Tracer) End(id int) {
	if t == nil {
		return
	}
	now := float64(time.Since(t.epoch).Nanoseconds()) / 1e3
	t.mu.Lock()
	t.spans[id].EndUS = now
	t.mu.Unlock()
}

// Timed times f as one operation made of one call into one layer: a
// root span named root with a child named span around f.
func (t *Tracer) Timed(root, span string, f func() error) (time.Duration, error) {
	op := t.NewOp()
	r := t.Start(root, -1, op)
	sp := t.Start(span, r, op)
	d, err := clock(f)
	t.End(sp)
	t.End(r)
	return d, err
}

// Add records a span whose duration was measured elsewhere — a stage
// timing the engine reports about itself, or a replay of the same
// request at a lower boundary — laid out from startUS.
func (t *Tracer) Add(name string, parent, op int, startUS, durUS float64) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans), Parent: parent, Op: op, Name: name, StartUS: startUS, EndUS: startUS + durUS})
	return len(t.spans) - 1
}

// Span returns a copy of the span.
func (t *Tracer) Span(id int) Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id]
}

// snapshot copies the spans recorded so far.
func (t *Tracer) snapshot() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteJSONL writes one span per line.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Accounting says, for one kind of operation, where its time went.
type Accounting struct {
	// Root is the name of the operation's root span.
	Root string
	Ops  int
	// TotalUS is the summed duration of the root spans.
	TotalUS float64
	// SelfUS is the summed self time per layer over the operation's
	// descendant spans; the root's own self time is UnaccountedUS.
	SelfUS        map[string]float64
	UnaccountedUS float64
}

// Account groups spans by root name and charges every span's self time
// to its layer. A span's self time is its duration minus the part its
// children cover: children with different names ran one after another
// and cover their sum; children with one name are a scatter to parallel
// parts, of which only the slowest is on the blocking path — it alone
// covers time, and it alone (with what it caused) is charged.
func (t *Tracer) Account() []Accounting {
	spans := t.snapshot()
	// blocking[id] holds, per child name, the slowest child of span id.
	blocking := make(map[int]map[string]Span)
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		byName := blocking[s.Parent]
		if byName == nil {
			byName = map[string]Span{}
			blocking[s.Parent] = byName
		}
		if cur, ok := byName[s.Name]; !ok || s.Dur() > cur.Dur() {
			byName[s.Name] = s
		}
	}
	self := func(s Span) float64 {
		covered := 0.0
		for _, c := range blocking[s.ID] {
			covered += c.Dur()
		}
		return max(s.Dur()-covered, 0)
	}
	byRoot := map[string]*Accounting{}
	var charge func(a *Accounting, s Span)
	charge = func(a *Accounting, s Span) {
		a.SelfUS[layerOf(s.Name)] += self(s)
		for _, c := range blocking[s.ID] {
			charge(a, c)
		}
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			continue
		}
		a := byRoot[s.Name]
		if a == nil {
			a = &Accounting{Root: s.Name, SelfUS: map[string]float64{}}
			byRoot[s.Name] = a
		}
		a.Ops++
		a.TotalUS += s.Dur()
		a.UnaccountedUS += self(s)
		for _, c := range blocking[s.ID] {
			charge(a, c)
		}
	}
	out := make([]Accounting, 0, len(byRoot))
	for _, a := range byRoot {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Root < out[j].Root })
	return out
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// WriteAccounting prints the table: per operation kind, the share of
// its end-to-end time each layer's self time explains. What no child
// span covers is the root's own time; above 20 % it is flagged as
// unaccounted, because then the layer numbers do not explain the
// end-to-end one.
func WriteAccounting(w io.Writer, workload string, acc []Accounting) {
	fmt.Fprintf(w, "accounting %s: share of end-to-end op time by layer self time\n", workload)
	for _, a := range acc {
		if a.TotalUS == 0 {
			continue
		}
		layers := make([]string, 0, len(a.SelfUS))
		for l := range a.SelfUS {
			layers = append(layers, l)
		}
		sort.Slice(layers, func(i, j int) bool { return a.SelfUS[layers[i]] > a.SelfUS[layers[j]] })
		fmt.Fprintf(w, "  %-22s ops=%-6d mean=%10.1f us |", a.Root, a.Ops, a.TotalUS/float64(a.Ops))
		for _, l := range layers {
			fmt.Fprintf(w, " %s %.1f%%", l, 100*a.SelfUS[l]/a.TotalUS)
		}
		gap := a.UnaccountedUS / a.TotalUS
		label := "rest"
		if gap > 0.20 {
			label = "unaccounted"
		}
		fmt.Fprintf(w, " | %s %.1f%%\n", label, 100*gap)
	}
}
