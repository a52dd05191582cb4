package resource

import (
	"fmt"
	"math"
	"testing"

	"sommelier/internal/graph"
	"sommelier/internal/tensor"
	"sommelier/internal/zoo"
)

// measureOracle is MeasureWith as it was before it sorted the graph
// once: ShapeOf (one topological sort) into a name-keyed map, then a
// second sort for the measuring pass, finish times in another map.
func measureOracle(p *Profiler, m *graph.Model, setting ExecSetting) (Profile, error) {
	shapes, err := m.ShapeOf()
	if err != nil {
		return Profile{}, fmt.Errorf("resource: %w", err)
	}
	order, err := m.TopoSort()
	if err != nil {
		return Profile{}, fmt.Errorf("resource: %w", err)
	}
	if setting.BatchSize <= 0 {
		setting.BatchSize = 1
	}
	if setting.ActivationBytes <= 0 {
		setting.ActivationBytes = bytesPerElement
	}
	var flops, paramBytes, peakActivation int64
	finish := make(map[string]float64, len(order))
	for _, l := range order {
		in := make([]tensor.Shape, len(l.Inputs))
		ready := 0.0
		for i, name := range l.Inputs {
			in[i] = shapes[name]
			if finish[name] > ready {
				ready = finish[name]
			}
		}
		opIn := in
		if l.Op == graph.OpInput {
			opIn = []tensor.Shape{shapes[l.Name]}
		}
		f, err := OpFLOPs(l, opIn)
		if err != nil {
			return Profile{}, fmt.Errorf("resource: layer %q: %w", l.Name, err)
		}
		flops += f
		paramBytes += l.ParamCount() * bytesPerElement
		live := int64(shapes[l.Name].NumElements())
		for _, s := range in {
			live += int64(s.NumElements())
		}
		if act := live * int64(setting.ActivationBytes) * int64(setting.BatchSize); act > peakActivation {
			peakActivation = act
		}
		finish[l.Name] = ready + p.opLatencyNS(l, f, shapes[l.Name])
	}
	var latNS float64
	for _, t := range finish {
		if t > latNS {
			latNS = t
		}
	}
	mem := float64(paramBytes+peakActivation) * (1 + setting.RuntimeOverhead)
	return Profile{
		FLOPs:       flops,
		MemoryBytes: int64(mem),
		LatencyMS:   latNS * float64(setting.BatchSize) / 1e6,
	}, nil
}

// TestMeasureMatchesOracle: every zoo family, under the default setting
// and the three knobs an EXEC spec turns — including the zero values
// MeasureWith normalises — profiles bit for bit as the two-sort body
// that measured under the setting did; broken graphs fail with the same
// error.
func TestMeasureMatchesOracle(t *testing.T) {
	settings := []ExecSetting{DefaultSetting(),
		{Name: "batch8", BatchSize: 8, ActivationBytes: 4, RuntimeOverhead: 0.05},
		{Name: "fp16", BatchSize: 1, ActivationBytes: 2, RuntimeOverhead: 0.05},
		{Name: "overhead", BatchSize: 1, ActivationBytes: 4, RuntimeOverhead: 0.3},
		{Name: "batch0", BatchSize: 0, ActivationBytes: 4, RuntimeOverhead: 0.05},
		{Name: "batch64", BatchSize: 64, ActivationBytes: 4, RuntimeOverhead: 0.05},
		{Name: "bytes0", BatchSize: 1, ActivationBytes: 0, RuntimeOverhead: 0.05},
		{Name: "bytes2", BatchSize: 1, ActivationBytes: 2, RuntimeOverhead: 0.05},
		{Name: "overhead0", BatchSize: 1, ActivationBytes: 4, RuntimeOverhead: 0},
		{Name: "overhead0.5", BatchSize: 1, ActivationBytes: 4, RuntimeOverhead: 0.5},
		{Name: "zero"},
		{Name: "mixed", BatchSize: 64, ActivationBytes: 2, RuntimeOverhead: 0.5},
	}
	sameBits := func(a, b Profile) bool {
		return a.FLOPs == b.FLOPs && a.MemoryBytes == b.MemoryBytes &&
			math.Float64bits(a.LatencyMS) == math.Float64bits(b.LatencyMS)
	}
	p := NewProfiler(nil)
	var models []*graph.Model
	for i, fam := range zoo.Families() {
		m, err := zoo.Build(fam, zoo.Config{Name: fam, Seed: uint64(i + 1), Depth: 3, Width: 24})
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	for _, m := range models {
		for _, s := range settings {
			got, gotErr := p.MeasureWith(m, s)
			want, wantErr := measureOracle(p, m, s)
			if !sameBits(got, want) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Errorf("%s under %s: %+v (%v), oracle %+v (%v)", m.Name, s.Name, got, gotErr, want, wantErr)
			}
		}
	}

	ghost := mlp(t, 4, 3, 2)
	ghost.Layers[2].Inputs = []string{"ghost"}
	badInput := mlp(t, 4, 3, 2)
	badInput.InputShape = tensor.Shape{0}
	badShape := mlp(t, 4, 3, 2)
	badShape.Layers[1].Attrs.Units = 0
	for _, m := range []*graph.Model{ghost, badInput, badShape} {
		_, gotErr := p.Measure(m)
		_, wantErr := measureOracle(p, m, DefaultSetting())
		if gotErr == nil || gotErr.Error() != fmt.Sprint(wantErr) {
			t.Errorf("broken model: error %v, oracle %v", gotErr, wantErr)
		}
	}
}

// BenchmarkMeasureWith is the index-time footprint walk plus one Under.
func BenchmarkMeasureWith(b *testing.B) {
	m, err := zoo.Build("dense-residual", zoo.Config{Name: "m", Seed: 1, Depth: 3, Width: 64})
	if err != nil {
		b.Fatal(err)
	}
	p := NewProfiler(nil)
	s := ExecSetting{Name: "batch8", BatchSize: 8, ActivationBytes: 4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.MeasureWith(m, s); err != nil {
			b.Fatal(err)
		}
	}
}
