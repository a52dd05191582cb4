// Package nn executes graph.Model DNNs: single-sample forward passes,
// blocked batch passes (batch.go), per-layer activation capture (needed
// by the segment-equivalence analysis in internal/equiv), and input
// preprocessor registration per §4.1 of the paper.
package nn

import (
	"fmt"
	"math"
	"sync"

	"sommelier/internal/graph"
	"sommelier/internal/tensor"
)

// Preprocessor transforms a raw input sample into the tensor a model
// consumes. Models reference preprocessors by registered name so that two
// models with different input shapes can still be compared when they share
// a preprocessing pipeline (§4.1).
type Preprocessor func(raw *tensor.Tensor) *tensor.Tensor

var (
	preprocMu sync.RWMutex
	preprocs  = make(map[string]Preprocessor)
)

// RegisterPreprocessor installs a named preprocessor. Registering an empty
// name or nil function panics; re-registering a name overwrites it.
func RegisterPreprocessor(name string, p Preprocessor) {
	if name == "" || p == nil {
		panic("nn: invalid preprocessor registration")
	}
	preprocMu.Lock()
	defer preprocMu.Unlock()
	preprocs[name] = p
}

// LookupPreprocessor returns the named preprocessor, if registered.
func LookupPreprocessor(name string) (Preprocessor, bool) {
	preprocMu.RLock()
	defer preprocMu.RUnlock()
	p, ok := preprocs[name]
	return p, ok
}

// Executor runs forward passes over a validated model. It caches the
// topological order and per-layer fan-out so repeated inference (the
// serving simulator's hot path) does no graph work.
type Executor struct {
	model  *graph.Model
	order  []*graph.Layer
	output string
	// inputs[i] holds the positions in order of order[i]'s inputs,
	// readers[i] counts the layers that read order[i] (the batched pass
	// recycles an activation buffer once its last reader has run) and
	// outPos is the output layer's position.
	inputs  [][]int
	readers []int
	outPos  int
}

// NewExecutor prepares an executor for m. The model must validate.
func NewExecutor(m *graph.Model) (*Executor, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("nn: %w", err)
	}
	order, err := m.TopoSort()
	if err != nil {
		return nil, fmt.Errorf("nn: %w", err)
	}
	out, err := m.OutputLayerName()
	if err != nil {
		return nil, fmt.Errorf("nn: %w", err)
	}
	e := &Executor{model: m, order: order, output: out,
		inputs: make([][]int, len(order)), readers: make([]int, len(order))}
	pos := make(map[string]int, len(order))
	for i, l := range order {
		pos[l.Name] = i
		e.inputs[i] = make([]int, len(l.Inputs))
		for j, name := range l.Inputs {
			e.inputs[i][j] = pos[name]
			e.readers[pos[name]]++
		}
	}
	e.outPos = pos[out]
	return e, nil
}

// Model returns the model this executor runs.
func (e *Executor) Model() *graph.Model { return e.model }

// Layers returns the model's layers in the topological order the
// executor runs them. Callers must not mutate the slice.
func (e *Executor) Layers() []*graph.Layer { return e.order }

// InputPositions returns the positions in Layers of the inputs of the
// layer at position i, in the layer's input order. Callers must not
// mutate the slice.
func (e *Executor) InputPositions(i int) []int { return e.inputs[i] }

// OutputLayer returns the name of the model's sink layer.
func (e *Executor) OutputLayer() string { return e.output }

// Forward runs one sample through the model and returns the output tensor.
func (e *Executor) Forward(sample *tensor.Tensor) (*tensor.Tensor, error) {
	acts, err := e.forward(sample, nil)
	if err != nil {
		return nil, err
	}
	return acts[e.output], nil
}

// ForwardCapture runs one sample and returns the activations of every
// layer, keyed by layer name. The map includes the output layer.
func (e *Executor) ForwardCapture(sample *tensor.Tensor) (map[string]*tensor.Tensor, error) {
	return e.forward(sample, nil)
}

// ForwardFrom runs the model with the activations of some layers pinned to
// the supplied values (the "feed the rest of M after the segment just ran"
// step of §4.2's replacement assessment). Pinned layers are not executed;
// their values are used directly.
func (e *Executor) ForwardFrom(sample *tensor.Tensor, pinned map[string]*tensor.Tensor) (*tensor.Tensor, error) {
	acts, err := e.forward(sample, pinned)
	if err != nil {
		return nil, err
	}
	return acts[e.output], nil
}

// prepare returns the tensor the input layer holds for a raw sample: the
// registered preprocessor applied, the shape checked against the model.
func (e *Executor) prepare(sample *tensor.Tensor) (*tensor.Tensor, error) {
	in := sample
	if e.model.Preprocessor != "" {
		if p, ok := LookupPreprocessor(e.model.Preprocessor); ok {
			in = p(sample)
		}
	}
	if !in.Shape().Equal(e.model.InputShape) {
		return nil, fmt.Errorf("nn: input shape %v, model %q wants %v",
			in.Shape(), e.model.Name, e.model.InputShape)
	}
	return in, nil
}

func (e *Executor) forward(sample *tensor.Tensor, pinned map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	in, err := e.prepare(sample)
	if err != nil {
		return nil, err
	}
	acts := make(map[string]*tensor.Tensor, len(e.order))
	for _, l := range e.order {
		if v, ok := pinned[l.Name]; ok {
			acts[l.Name] = v
			continue
		}
		var out *tensor.Tensor
		var err error
		if l.Op == graph.OpInput {
			out = in
		} else {
			ins := make([]*tensor.Tensor, len(l.Inputs))
			for i, name := range l.Inputs {
				ins[i] = acts[name]
			}
			out, err = Apply(l, ins)
			if err != nil {
				return nil, fmt.Errorf("nn: layer %q: %w", l.Name, err)
			}
		}
		acts[l.Name] = out
	}
	return acts, nil
}

// Predict returns the argmax class index for a classification model.
func (e *Executor) Predict(sample *tensor.Tensor) (int, error) {
	out, err := e.Forward(sample)
	if err != nil {
		return 0, err
	}
	return out.ArgMax(), nil
}

// Apply evaluates a single layer on its input activations. It is exported
// so the equivalence analysis can drive individual operators.
func Apply(l *graph.Layer, in []*tensor.Tensor) (*tensor.Tensor, error) {
	switch l.Op {
	case graph.OpDense:
		return applyDense(l, in[0])
	case graph.OpConv2D:
		return applyConv(l, in[0])
	case graph.OpEmbedding:
		return applyEmbedding(l, in[0])
	case graph.OpReLU, graph.OpLeakyReLU, graph.OpTanh, graph.OpSigmoid:
		return in[0].Map(activationFunc(l)), nil
	case graph.OpSoftmax:
		return tensor.Softmax(in[0].Reshape(in[0].NumElements())).Reshape(in[0].Shape()...), nil
	case graph.OpMaxPool:
		return applyPool(l, in[0], true)
	case graph.OpMeanPool:
		return applyPool(l, in[0], false)
	case graph.OpGlobalAvgPool:
		return applyGlobalAvgPool(in[0])
	case graph.OpBatchNorm:
		return applyBatchNorm(l, in[0])
	case graph.OpLayerNorm:
		return applyLayerNorm(l, in[0])
	case graph.OpAdd, graph.OpMul:
		out := in[0].Clone()
		for _, x := range in[1:] {
			if !x.Shape().Equal(out.Shape()) {
				return nil, combineShapeError(l.Op, out.Shape(), x.Shape())
			}
			combine(l.Op, out.Data(), x.Data())
		}
		return out, nil
	case graph.OpConcat:
		return applyConcat(in)
	case graph.OpFlatten:
		return in[0].Reshape(in[0].NumElements()), nil
	case graph.OpDropout, graph.OpIdentity:
		return in[0], nil
	default:
		return nil, fmt.Errorf("nn: cannot execute op %q", l.Op)
	}
}

// activationFunc returns the scalar function of an elementwise
// activation layer; Apply maps it over one sample, the batched pass over
// a block of them.
func activationFunc(l *graph.Layer) func(float64) float64 {
	switch l.Op {
	case graph.OpReLU:
		return func(v float64) float64 { return math.Max(0, v) }
	case graph.OpLeakyReLU:
		alpha := l.Attrs.Alpha
		if alpha == 0 {
			alpha = 0.01
		}
		return func(v float64) float64 {
			if v >= 0 {
				return v
			}
			return alpha * v
		}
	case graph.OpTanh:
		return math.Tanh
	case graph.OpSigmoid:
		return func(v float64) float64 { return 1 / (1 + math.Exp(-v)) }
	}
	return nil
}

// combine folds src into dst elementwise: dst += src for Add, dst *= src
// for Mul. Inputs are folded in the order the layer lists them.
func combine(op graph.OpKind, dst, src []float64) {
	if op == graph.OpAdd {
		for i, v := range src {
			dst[i] += v
		}
		return
	}
	for i, v := range src {
		dst[i] *= v
	}
}

func combineShapeError(op graph.OpKind, a, b tensor.Shape) error {
	return fmt.Errorf("nn: %s inputs of shapes %v and %v", op, a, b)
}

// denseParams returns a Dense layer's weights and bias.
func denseParams(l *graph.Layer) (w, b *tensor.Tensor, err error) {
	if w, b = l.Param("W"), l.Param("B"); w == nil || b == nil {
		return nil, nil, fmt.Errorf("nn: Dense missing parameters")
	}
	return w, b, nil
}

func applyDense(l *graph.Layer, x *tensor.Tensor) (*tensor.Tensor, error) {
	w, b, err := denseParams(l)
	if err != nil {
		return nil, err
	}
	out := tensor.New(w.Shape()[0])
	tensor.DenseBatch(out.Data(), x.Data(), w, b)
	return out, nil
}

func applyConv(l *graph.Layer, x *tensor.Tensor) (*tensor.Tensor, error) {
	w, b := l.Param("W"), l.Param("B")
	if w == nil || b == nil {
		return nil, fmt.Errorf("nn: Conv2D missing parameters")
	}
	a := l.Attrs
	stride := a.Stride
	if stride == 0 {
		stride = 1
	}
	inC, inH, inW := x.Shape()[0], x.Shape()[1], x.Shape()[2]
	outH := (inH+2*a.Pad-a.KernelH)/stride + 1
	outW := (inW+2*a.Pad-a.KernelW)/stride + 1
	// im2col: columns of receptive fields, then one matmul.
	cols := tensor.New(inC*a.KernelH*a.KernelW, outH*outW)
	cd := cols.Data()
	xd := x.Data()
	colW := outH * outW
	for c := 0; c < inC; c++ {
		for kh := 0; kh < a.KernelH; kh++ {
			for kw := 0; kw < a.KernelW; kw++ {
				row := ((c*a.KernelH)+kh)*a.KernelW + kw
				base := row * colW
				for oh := 0; oh < outH; oh++ {
					ih := oh*stride + kh - a.Pad
					if ih < 0 || ih >= inH {
						continue
					}
					xrow := (c*inH + ih) * inW
					orow := base + oh*outW
					for ow := 0; ow < outW; ow++ {
						iw := ow*stride + kw - a.Pad
						if iw < 0 || iw >= inW {
							continue
						}
						cd[orow+ow] = xd[xrow+iw]
					}
				}
			}
		}
	}
	prod := tensor.MatMul(w, cols) // [outC, outH*outW]
	pd := prod.Data()
	bd := b.Data()
	for oc := 0; oc < a.OutChannels; oc++ {
		off := oc * colW
		for i := 0; i < colW; i++ {
			pd[off+i] += bd[oc]
		}
	}
	return prod.Reshape(a.OutChannels, outH, outW), nil
}

func applyEmbedding(l *graph.Layer, x *tensor.Tensor) (*tensor.Tensor, error) {
	w := l.Param("W")
	if w == nil {
		return nil, fmt.Errorf("nn: Embedding missing parameter")
	}
	vocab, dim := w.Shape()[0], w.Shape()[1]
	seq := x.NumElements()
	out := tensor.New(seq, dim)
	for i, idf := range x.Data() {
		id := int(idf)
		if id < 0 {
			id = 0
		}
		if id >= vocab {
			id = vocab - 1
		}
		copy(out.Data()[i*dim:(i+1)*dim], w.Data()[id*dim:(id+1)*dim])
	}
	return out, nil
}

func applyPool(l *graph.Layer, x *tensor.Tensor, isMax bool) (*tensor.Tensor, error) {
	a := l.Attrs
	stride := a.Stride
	if stride == 0 {
		stride = a.KernelH
	}
	c, h, w := x.Shape()[0], x.Shape()[1], x.Shape()[2]
	outH := (h-a.KernelH)/stride + 1
	outW := (w-a.KernelW)/stride + 1
	out := tensor.New(c, outH, outW)
	for ch := 0; ch < c; ch++ {
		for oh := 0; oh < outH; oh++ {
			for ow := 0; ow < outW; ow++ {
				var acc float64
				if isMax {
					acc = math.Inf(-1)
				}
				for kh := 0; kh < a.KernelH; kh++ {
					for kw := 0; kw < a.KernelW; kw++ {
						v := x.At(ch, oh*stride+kh, ow*stride+kw)
						if isMax {
							if v > acc {
								acc = v
							}
						} else {
							acc += v
						}
					}
				}
				if !isMax {
					acc /= float64(a.KernelH * a.KernelW)
				}
				out.Set(acc, ch, oh, ow)
			}
		}
	}
	return out, nil
}

func applyGlobalAvgPool(x *tensor.Tensor) (*tensor.Tensor, error) {
	c := x.Shape()[0]
	per := x.NumElements() / c
	out := tensor.New(c)
	xd := x.Data()
	for ch := 0; ch < c; ch++ {
		s := 0.0
		for i := ch * per; i < (ch+1)*per; i++ {
			s += xd[i]
		}
		out.Data()[ch] = s / float64(per)
	}
	return out, nil
}

func applyBatchNorm(l *graph.Layer, x *tensor.Tensor) (*tensor.Tensor, error) {
	gamma, beta := l.Param("Gamma"), l.Param("Beta")
	mean, variance := l.Param("Mean"), l.Param("Var")
	if gamma == nil || beta == nil || mean == nil || variance == nil {
		return nil, fmt.Errorf("nn: BatchNorm missing parameters")
	}
	eps := l.Attrs.Eps
	if eps == 0 {
		eps = 1e-5
	}
	c := x.Shape()[0]
	per := x.NumElements() / c
	out := x.Clone()
	od := out.Data()
	for ch := 0; ch < c; ch++ {
		scale := gamma.Data()[ch] / math.Sqrt(variance.Data()[ch]+eps)
		shift := beta.Data()[ch] - mean.Data()[ch]*scale
		for i := ch * per; i < (ch+1)*per; i++ {
			od[i] = od[i]*scale + shift
		}
	}
	return out, nil
}

func applyLayerNorm(l *graph.Layer, x *tensor.Tensor) (*tensor.Tensor, error) {
	eps := l.Attrs.Eps
	if eps == 0 {
		eps = 1e-5
	}
	n := x.NumElements()
	mean := x.Mean()
	var sq float64
	for _, v := range x.Data() {
		d := v - mean
		sq += d * d
	}
	std := math.Sqrt(sq/float64(n) + eps)
	out := tensor.New(n)
	gamma, beta := l.Param("Gamma"), l.Param("Beta")
	for i, v := range x.Data() {
		nv := (v - mean) / std
		if gamma != nil {
			nv = nv*gamma.Data()[i] + beta.Data()[i]
		}
		out.Data()[i] = nv
	}
	return out.Reshape(x.Shape()...), nil
}

func applyConcat(in []*tensor.Tensor) (*tensor.Tensor, error) {
	shapes := make([]tensor.Shape, len(in))
	for i, t := range in {
		shapes[i] = t.Shape()
	}
	outShape, err := graph.InferShape(graph.OpConcat, graph.Attrs{}, shapes)
	if err != nil {
		return nil, err
	}
	out := tensor.New(outShape...)
	off := 0
	for _, t := range in {
		copy(out.Data()[off:], t.Data())
		off += t.NumElements()
	}
	return out, nil
}

// AgreementRatio returns the fraction of samples on which two executors
// produce the same argmax class — the pairwise agreement of Figure 3.
func AgreementRatio(a, b *Executor, samples []*tensor.Tensor) (float64, error) {
	if len(samples) == 0 {
		return 0, fmt.Errorf("nn: no samples")
	}
	pa, err := a.PredictBatch(samples)
	if err != nil {
		return 0, err
	}
	pb, err := b.PredictBatch(samples)
	if err != nil {
		return 0, err
	}
	agree := 0
	for i, cls := range pa {
		if cls == pb[i] {
			agree++
		}
	}
	return float64(agree) / float64(len(samples)), nil
}
