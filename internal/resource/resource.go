// Package resource computes hardware-independent resource profiles for
// models (§5.3 of the paper): FLOPs as the time-complexity proxy, memory
// (parameters plus peak intermediate activations) as the space-complexity
// proxy, and a per-operator latency table combined with a critical-path
// estimate for platform-aware latency.
package resource

import (
	"fmt"
	"math"

	"sommelier/internal/graph"
	"sommelier/internal/tensor"
)

// Profile is a model's resource vector under one execution setting
// (Footprint.Under): FLOPs are per sample, memory and latency are for
// one batch of the setting.
type Profile struct {
	// FLOPs counts multiply-accumulate operations (×2) across all
	// compute-intensive operators, for one sample.
	FLOPs int64
	// MemoryBytes is the parameter storage plus the peak simultaneous
	// intermediate tensor footprint of a batch, plus the runtime
	// overhead. The default setting counts 4 bytes per activation
	// (models serve in float32 even though this reproduction computes
	// in float64).
	MemoryBytes int64
	// LatencyMS is the critical-path latency estimate from the
	// per-operator table, in milliseconds, for a batch.
	LatencyMS float64
}

// Vector returns the profile as (memoryMB, GFLOPs, latencyMS) — the
// multi-dimensional lookup key of §5.4.
func (p Profile) Vector() []float64 {
	return []float64{
		float64(p.MemoryBytes) / (1 << 20),
		float64(p.FLOPs) / 1e9,
		p.LatencyMS,
	}
}

// IsZero reports whether the profile carries no measurements — the
// zero value, as distinct from a real (if tiny) measured profile.
func (p Profile) IsZero() bool { return p == Profile{} }

// RelativeTo returns this profile's usage as fractions of a reference
// profile, the form queries express budgets in ("80% of ResNet memory").
func (p Profile) RelativeTo(ref Profile) (memFrac, flopsFrac, latFrac float64) {
	frac := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	return frac(float64(p.MemoryBytes), float64(ref.MemoryBytes)),
		frac(float64(p.FLOPs), float64(ref.FLOPs)),
		frac(p.LatencyMS, ref.LatencyMS)
}

const bytesPerElement = 4

// LatencyTable maps operator kinds to per-element execution cost in
// nanoseconds, the Paleo-style table of §5.3. Entries are costs per output
// element except for linear operators, which are per FLOP.
type LatencyTable map[graph.OpKind]float64

// DefaultLatencyTable models a single mid-range accelerator. Absolute
// values are synthetic; only the relative weights matter for the
// experiments, which compare models against each other.
func DefaultLatencyTable() LatencyTable {
	return LatencyTable{
		graph.OpDense:         0.00065, // ns per FLOP
		graph.OpConv2D:        0.00050, // conv kernels vectorize better
		graph.OpEmbedding:     0.5,     // ns per output element (memory bound)
		graph.OpReLU:          0.3,
		graph.OpLeakyReLU:     0.35,
		graph.OpTanh:          1.2,
		graph.OpSigmoid:       1.2,
		graph.OpSoftmax:       1.5,
		graph.OpMaxPool:       0.8,
		graph.OpMeanPool:      0.8,
		graph.OpGlobalAvgPool: 0.6,
		graph.OpBatchNorm:     0.7,
		graph.OpLayerNorm:     0.9,
		graph.OpAdd:           0.3,
		graph.OpMul:           0.3,
		graph.OpConcat:        0.2,
		graph.OpFlatten:       0.0,
		graph.OpDropout:       0.0,
		graph.OpIdentity:      0.0,
		graph.OpInput:         0.0,
	}
}

// ExecSetting captures the run-time execution configuration that perturbs
// a model's measured footprint (Figure 12(a)): batch size, activation
// precision, and the runtime's fixed overhead fraction.
type ExecSetting struct {
	Name string
	// BatchSize multiplies activation memory.
	BatchSize int
	// ActivationBytes is bytes per activation element (2 = fp16, 4 =
	// fp32).
	ActivationBytes int
	// RuntimeOverhead is a fractional memory overhead added by the
	// runtime (fragmentation, workspace buffers).
	RuntimeOverhead float64
}

// DefaultSetting is a batch-1 fp32 runtime with 5% overhead.
func DefaultSetting() ExecSetting {
	return ExecSetting{Name: "default", BatchSize: 1, ActivationBytes: 4, RuntimeOverhead: 0.05}
}

// OpFLOPs returns the FLOP count of a single layer given its input shapes.
func OpFLOPs(l *graph.Layer, in []tensor.Shape) (int64, error) {
	out, err := outShape(l, in)
	if err != nil {
		return 0, err
	}
	return opFLOPs(l, in, out)
}

// opFLOPs is OpFLOPs given the layer's already inferred output shape.
func opFLOPs(l *graph.Layer, in []tensor.Shape, out tensor.Shape) (int64, error) {
	switch l.Op {
	case graph.OpDense:
		// 2 * units * inDim MACs plus bias adds.
		return 2*int64(l.Attrs.Units)*int64(in[0][0]) + int64(l.Attrs.Units), nil
	case graph.OpConv2D:
		inC := int64(in[0][0])
		k := int64(l.Attrs.KernelH) * int64(l.Attrs.KernelW)
		perOut := 2 * inC * k
		return perOut*int64(out.NumElements()) + int64(out.NumElements()), nil
	case graph.OpEmbedding:
		return int64(out.NumElements()), nil // gather, ~1 op per element
	case graph.OpMaxPool, graph.OpMeanPool:
		k := int64(l.Attrs.KernelH) * int64(l.Attrs.KernelW)
		return k * int64(out.NumElements()), nil
	case graph.OpGlobalAvgPool:
		return int64(in[0].NumElements()), nil
	case graph.OpBatchNorm, graph.OpLayerNorm:
		return 4 * int64(out.NumElements()), nil
	case graph.OpReLU, graph.OpLeakyReLU, graph.OpIdentity, graph.OpDropout, graph.OpFlatten:
		return int64(out.NumElements()), nil
	case graph.OpTanh, graph.OpSigmoid, graph.OpSoftmax:
		return 4 * int64(out.NumElements()), nil
	case graph.OpAdd, graph.OpMul:
		return int64(len(in)-1) * int64(out.NumElements()), nil
	case graph.OpConcat:
		return int64(out.NumElements()), nil
	case graph.OpInput:
		return 0, nil
	default:
		return 0, fmt.Errorf("resource: unknown op %s", l.Op)
	}
}

func outShape(l *graph.Layer, in []tensor.Shape) (tensor.Shape, error) {
	if l.Op == graph.OpInput {
		if len(in) == 1 {
			return in[0], nil
		}
		return nil, fmt.Errorf("resource: input layer needs its shape supplied")
	}
	return graph.InferShape(l.Op, l.Attrs, in)
}

// Profiler computes resource profiles. It is safe for concurrent use.
type Profiler struct {
	table LatencyTable
}

// NewProfiler returns a profiler using the given latency table, or the
// default table when nil. The table is copied defensively so later
// caller mutations can't race with concurrent Measure calls.
func NewProfiler(table LatencyTable) *Profiler {
	if table == nil {
		table = DefaultLatencyTable()
	}
	cp := make(LatencyTable, len(table))
	for k, v := range table {
		cp[k] = v
	}
	return &Profiler{table: cp}
}

// Measure computes the model's profile under the default execution
// setting.
func (p *Profiler) Measure(m *graph.Model) (Profile, error) {
	return p.MeasureWith(m, DefaultSetting())
}

// MeasureWith computes the model's profile under a specific execution
// setting: its footprint, under the setting.
func (p *Profiler) MeasureWith(m *graph.Model, setting ExecSetting) (Profile, error) {
	f, err := p.Footprint(m)
	if err != nil {
		return Profile{}, err
	}
	return f.Under(setting), nil
}

// Footprint is what a model costs before an execution setting applies:
// the one graph walk every profile of the model is derived from, so a
// setting is arithmetic on it rather than a re-measurement (Figure
// 12(a)). It is 32 bytes.
type Footprint struct {
	// FLOPs is per sample, as in Profile.
	FLOPs int64
	// ParamBytes is the parameter storage, at 4 bytes per element.
	ParamBytes int64
	// PeakActivation is the largest number of intermediate tensor
	// elements live at once, per sample. Kept in elements: for any
	// positive bytes-per-element × batch k, the peak of live·k over the
	// layers is k times the peak of live, so no setting needs the walk.
	PeakActivation int64
	// LatencyNS is the critical-path latency of one sample, in
	// nanoseconds.
	LatencyNS float64
}

// Under returns the footprint's profile under an execution setting: the
// activation peak scaled by precision and batch, parameters added, the
// runtime overhead applied, latency scaled by batch. A memory figure
// past the int64 range saturates at math.MaxInt64, so an absurd setting
// fails every finite memory budget instead of wrapping into a small one.
func (f Footprint) Under(setting ExecSetting) Profile {
	batch, elem := int64(setting.BatchSize), int64(setting.ActivationBytes)
	if batch <= 0 {
		batch = 1
	}
	if elem <= 0 {
		elem = bytesPerElement
	}
	mem := int64(math.MaxInt64)
	// Each product, and the parameter sum with the last, is checked by
	// division before it is taken; 2⁶³ is the first float64 past int64,
	// and NaN fails that test too.
	if pe := f.PeakActivation; pe <= math.MaxInt64/elem && pe*elem <= (math.MaxInt64-f.ParamBytes)/batch {
		if m := float64(f.ParamBytes+pe*elem*batch) * (1 + setting.RuntimeOverhead); m < 1<<63 {
			mem = int64(m)
		}
	}
	return Profile{
		FLOPs:       f.FLOPs,
		MemoryBytes: mem,
		LatencyMS:   f.LatencyNS * float64(batch) / 1e6,
	}
}

// Footprint walks the model once, in the one topological order
// graph.Model.InferShapes sorted and shaped, with finish times kept by
// position in it.
func (p *Profiler) Footprint(m *graph.Model) (Footprint, error) {
	so, err := m.InferShapes()
	if err != nil {
		return Footprint{}, fmt.Errorf("resource: %w", err)
	}
	order, shapes, pos := so.Layers, so.Shapes, so.Pos

	var f Footprint
	// finish[i] is the time at which layer order[i] completes; the
	// model latency is the completion time of the sink — the longest
	// path of §5.3.
	finish := make([]float64, len(order))
	// A layer's input shapes, on the stack: opFLOPs does not keep them,
	// and a layer rarely takes more than two.
	var inBuf [4]tensor.Shape
	in := inBuf[:0]
	for i, l := range order {
		in = in[:0]
		ready := 0.0
		for _, name := range l.Inputs {
			at := pos[name]
			in = append(in, shapes[at])
			if finish[at] > ready {
				ready = finish[at]
			}
		}
		opIn := in
		if l.Op == graph.OpInput {
			opIn = shapes[i : i+1]
		}
		flops, err := opFLOPs(l, opIn, shapes[i])
		if err != nil {
			return Footprint{}, fmt.Errorf("resource: layer %q: %w", l.Name, err)
		}
		f.FLOPs += flops
		f.ParamBytes += l.ParamCount() * bytesPerElement

		// Simple liveness model: a layer's inputs and output are live
		// simultaneously while it runs; track the max across layers.
		live := int64(shapes[i].NumElements())
		for _, s := range in {
			live += int64(s.NumElements())
		}
		f.PeakActivation = max(f.PeakActivation, live)

		finish[i] = ready + p.opLatencyNS(l, flops, shapes[i])
	}
	for _, t := range finish {
		if t > f.LatencyNS {
			f.LatencyNS = t
		}
	}
	return f, nil
}

func (p *Profiler) opLatencyNS(l *graph.Layer, flops int64, out tensor.Shape) float64 {
	cost, ok := p.table[l.Op]
	if !ok {
		cost = 0.5
	}
	switch l.Op {
	case graph.OpDense, graph.OpConv2D:
		return cost * float64(flops)
	default:
		return cost * float64(out.NumElements())
	}
}
