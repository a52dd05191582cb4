package resource

import (
	"math"
	"testing"

	"sommelier/internal/graph"
	"sommelier/internal/tensor"
)

func mlp(t testing.TB, in, hidden, out int) *graph.Model {
	t.Helper()
	b := graph.NewBuilder("mlp", graph.TaskClassification, tensor.Shape{in}, tensor.NewRNG(1))
	b.Dense(hidden)
	b.ReLU()
	b.Dense(out)
	b.Softmax()
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestOpFLOPsDense(t *testing.T) {
	l := &graph.Layer{Op: graph.OpDense, Attrs: graph.Attrs{Units: 10}}
	f, err := OpFLOPs(l, []tensor.Shape{{20}})
	if err != nil {
		t.Fatal(err)
	}
	if f != 2*10*20+10 {
		t.Fatalf("Dense FLOPs = %d", f)
	}
}

func TestOpFLOPsConv(t *testing.T) {
	l := &graph.Layer{Op: graph.OpConv2D, Attrs: graph.Attrs{
		OutChannels: 8, KernelH: 3, KernelW: 3, Stride: 1, Pad: 1,
	}}
	f, err := OpFLOPs(l, []tensor.Shape{{3, 16, 16}})
	if err != nil {
		t.Fatal(err)
	}
	outElems := int64(8 * 16 * 16)
	want := 2*3*9*outElems + outElems
	if f != want {
		t.Fatalf("Conv FLOPs = %d, want %d", f, want)
	}
}

func TestMeasureMLP(t *testing.T) {
	m := mlp(t, 100, 50, 10)
	p, err := NewProfiler(nil).Measure(m)
	if err != nil {
		t.Fatal(err)
	}
	wantFLOPs := int64(2*50*100+50) + 50 + int64(2*10*50+10) + 4*10
	if p.FLOPs != wantFLOPs {
		t.Fatalf("FLOPs = %d, want %d", p.FLOPs, wantFLOPs)
	}
	// Parameter bytes alone: (50*100+50 + 10*50+10) * 4.
	paramBytes := int64(50*100+50+10*50+10) * 4
	if p.MemoryBytes <= paramBytes {
		t.Fatalf("MemoryBytes = %d should exceed param bytes %d (activations, overhead)",
			p.MemoryBytes, paramBytes)
	}
	if p.LatencyMS <= 0 {
		t.Fatalf("LatencyMS = %g", p.LatencyMS)
	}
}

func TestBiggerModelCostsMore(t *testing.T) {
	small := mlp(t, 50, 20, 5)
	big := mlp(t, 50, 200, 5)
	prof := NewProfiler(nil)
	ps, err := prof.Measure(small)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := prof.Measure(big)
	if err != nil {
		t.Fatal(err)
	}
	if pb.FLOPs <= ps.FLOPs || pb.MemoryBytes <= ps.MemoryBytes || pb.LatencyMS <= ps.LatencyMS {
		t.Fatalf("bigger model not more expensive: %+v vs %+v", pb, ps)
	}
}

func TestExecSettingsChangeMemory(t *testing.T) {
	m := mlp(t, 100, 100, 10)
	prof := NewProfiler(nil)
	base, err := prof.MeasureWith(m, ExecSetting{Name: "b1", BatchSize: 1, ActivationBytes: 4})
	if err != nil {
		t.Fatal(err)
	}
	batched, err := prof.MeasureWith(m, ExecSetting{Name: "b32", BatchSize: 32, ActivationBytes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if batched.MemoryBytes <= base.MemoryBytes {
		t.Fatal("batching should raise activation memory")
	}
	half, err := prof.MeasureWith(m, ExecSetting{Name: "fp16", BatchSize: 1, ActivationBytes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if half.MemoryBytes >= base.MemoryBytes {
		t.Fatal("fp16 activations should lower memory")
	}
	// FLOPs are setting-independent.
	if batched.FLOPs != base.FLOPs || half.FLOPs != base.FLOPs {
		t.Fatal("FLOPs should not depend on execution setting")
	}
}

func TestCriticalPathUsesLongestBranch(t *testing.T) {
	// Two parallel branches joined by Add: latency should track the
	// expensive branch, not the sum.
	b := graph.NewBuilder("branch", graph.TaskRegression, tensor.Shape{256}, tensor.NewRNG(2))
	start := b.Dense(256)
	cheap := b.Add(graph.OpIdentity, graph.Attrs{}, start)
	heavy1 := b.Add(graph.OpDense, graph.Attrs{Units: 256}, start)
	heavy2 := b.Add(graph.OpDense, graph.Attrs{Units: 256}, heavy1)
	b.Add(graph.OpAdd, graph.Attrs{}, cheap, heavy2)
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	// Sequential version of the heavy path alone.
	b2 := graph.NewBuilder("seq", graph.TaskRegression, tensor.Shape{256}, tensor.NewRNG(2))
	b2.Dense(256)
	b2.Dense(256)
	b2.Dense(256)
	seq, err := b2.Build()
	if err != nil {
		t.Fatal(err)
	}

	prof := NewProfiler(nil)
	pb, err := prof.Measure(m)
	if err != nil {
		t.Fatal(err)
	}
	psq, err := prof.Measure(seq)
	if err != nil {
		t.Fatal(err)
	}
	// Branched latency ≈ sequential latency of the long path plus the
	// join; it must be far below the naive sum of both branches.
	if pb.LatencyMS > psq.LatencyMS*1.5 {
		t.Fatalf("critical path too long: branch=%g seq=%g", pb.LatencyMS, psq.LatencyMS)
	}
	if pb.LatencyMS < psq.LatencyMS*0.9 {
		t.Fatalf("critical path shorter than its longest branch: %g vs %g", pb.LatencyMS, psq.LatencyMS)
	}
}

func TestVectorOrder(t *testing.T) {
	p := Profile{FLOPs: 2e9, MemoryBytes: 1 << 21, LatencyMS: 3}
	v := p.Vector()
	if v[0] != 2 || v[1] != 2 || v[2] != 3 {
		t.Fatalf("Vector = %v", v)
	}
}

func TestMeasureInvalidModel(t *testing.T) {
	m := &graph.Model{Name: "bad", InputShape: tensor.Shape{2},
		Layers: []*graph.Layer{
			{Name: "input", Op: graph.OpInput},
			{Name: "x", Op: graph.OpDense, Inputs: []string{"ghost"}},
		}}
	if _, err := NewProfiler(nil).Measure(m); err == nil {
		t.Fatal("expected error for invalid graph")
	}
}

// TestUnderSaturatesMemory: a setting whose activation term or overhead
// carries memory past int64 reports math.MaxInt64 — never a wrapped,
// smaller or negative figure — and the largest settings that fit are
// exact.
func TestUnderSaturatesMemory(t *testing.T) {
	f := Footprint{FLOPs: 10, ParamBytes: 1000, PeakActivation: 8, LatencyNS: 500}
	for _, s := range []ExecSetting{
		{BatchSize: 1 << 61, ActivationBytes: 4},                         // product wraps
		{BatchSize: 1, ActivationBytes: 1 << 61},                         // bytes per element alone wraps
		{BatchSize: (math.MaxInt64 - 500) / 8, ActivationBytes: 1},       // sum past int64
		{BatchSize: 1, ActivationBytes: 4, RuntimeOverhead: 1e17},        // conversion past int64
		{BatchSize: 1, ActivationBytes: 4, RuntimeOverhead: math.Inf(1)}, // infinite
		{BatchSize: 1, ActivationBytes: 4, RuntimeOverhead: math.NaN()},  // no figure at all
	} {
		if got := f.Under(s).MemoryBytes; got != math.MaxInt64 {
			t.Errorf("%+v: MemoryBytes = %d, want saturation at %d", s, got, int64(math.MaxInt64))
		}
	}
	if got, want := f.Under(ExecSetting{BatchSize: 1 << 40, ActivationBytes: 4}).MemoryBytes, int64(1000+8*4<<40); got != want {
		t.Errorf("in-range batch: MemoryBytes = %d, want %d", got, want)
	}
	mem := float64(1000+8*4) * 1.05
	if got := f.Under(DefaultSetting()); got != (Profile{FLOPs: 10, MemoryBytes: int64(mem), LatencyMS: 500.0 / 1e6}) {
		t.Errorf("default setting: %+v", got)
	}
}
