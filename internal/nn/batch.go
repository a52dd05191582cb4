package nn

import (
	"fmt"

	"sommelier/internal/graph"
	"sommelier/internal/tensor"
)

// batchBlock is the number of samples the batched pass carries through
// the model at once. It is a constant, not a function of the batch, so
// the pass's scratch is batchBlock rows of the widest live activations
// whether a validation set holds 64 probes or 10 000; and a layer's
// weights are used batchBlock times back to back, while they are in
// cache, not once per trip through the whole model.
const batchBlock = 32

// activation is one layer's output for a block of samples: one row of
// shape.NumElements() values per sample. Pass-through layers share their
// input's buffer.
type activation struct {
	shape tensor.Shape // of one sample
	width int          // shape.NumElements()
	buf   *buffer
}

func (a activation) row(r int) []float64 { return a.buf.data[r*a.width : (r+1)*a.width] }

// rows is the whole block, row after row: alloc cuts the buffer to the
// block's row count.
func (a activation) rows() []float64 { return a.buf.data }

// buffer is the storage of one or more activations; users counts the
// layers that hold it and still have readers to come.
type buffer struct {
	data  []float64
	users int
}

// blockPass is the scratch of one ForwardBatch or PredictBatch call:
// the activations of the block in flight and the buffers earlier layers
// and earlier blocks have finished with.
type blockPass struct {
	e       *Executor
	acts    []activation
	pending []int // readers of each layer still to run in this block
	free    []*buffer
}

// alloc returns an activation of n rows of the given per-sample shape,
// in the smallest finished buffer that holds it or else a new one.
func (p *blockPass) alloc(shape tensor.Shape, n int) activation {
	a := activation{shape: shape, width: shape.NumElements()}
	size, best := n*a.width, -1
	for i, b := range p.free {
		if cap(b.data) >= size && (best < 0 || cap(b.data) < cap(p.free[best].data)) {
			best = i
		}
	}
	if best < 0 {
		a.buf = &buffer{data: make([]float64, size), users: 1}
		return a
	}
	a.buf = p.free[best]
	a.buf.data, a.buf.users = a.buf.data[:size], 1
	p.free[best] = p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	return a
}

// release drops one layer's hold on its buffer.
func (p *blockPass) release(a activation) {
	if a.buf.users--; a.buf.users == 0 {
		p.free = append(p.free, a.buf)
	}
}

// forEachBlock runs samples through the model batchBlock at a time and
// hands emit the output activation of each block with the index of the
// block's first sample and its row count. Every operator sees exactly the
// per-sample values the single-sample pass would give it, so outputs
// are bit-identical to Forward's whatever the batch size.
func (e *Executor) forEachBlock(samples []*tensor.Tensor, emit func(lo, n int, out activation)) error {
	p := &blockPass{e: e, acts: make([]activation, len(e.order)), pending: make([]int, len(e.order))}
	for lo := 0; lo < len(samples); lo += batchBlock {
		n := min(batchBlock, len(samples)-lo)
		in := p.alloc(e.model.InputShape, n)
		for r, s := range samples[lo : lo+n] {
			x, err := e.prepare(s)
			if err != nil {
				return fmt.Errorf("nn: sample %d: %w", lo+r, err)
			}
			copy(in.row(r), x.Data())
		}
		out, r, err := p.run(in, n)
		if err != nil {
			return fmt.Errorf("nn: sample %d: %w", lo+r, err)
		}
		emit(lo, n, out)
		p.release(out)
	}
	return nil
}

// run carries one block of n samples, loaded into in, through every
// layer and returns the output layer's activation. On error it also
// returns the row the failing operator was working on.
func (p *blockPass) run(in activation, n int) (activation, int, error) {
	e := p.e
	copy(p.pending, e.readers)
	for i, l := range e.order {
		var src activation // the first (usually only) input
		if len(e.inputs[i]) > 0 {
			src = p.acts[e.inputs[i][0]]
		}
		var out activation
		switch l.Op {
		case graph.OpInput:
			out = in
		case graph.OpDense:
			w, b, err := denseParams(l)
			if err != nil {
				return activation{}, 0, fmt.Errorf("nn: layer %q: %w", l.Name, err)
			}
			out = p.alloc(tensor.Shape{w.Shape()[0]}, n)
			tensor.DenseBatch(out.rows(), src.rows(), w, b)
		case graph.OpReLU, graph.OpLeakyReLU, graph.OpTanh, graph.OpSigmoid:
			out = p.alloc(src.shape, n)
			f, dst := activationFunc(l), out.rows()
			for k, v := range src.rows() {
				dst[k] = f(v)
			}
		case graph.OpAdd, graph.OpMul:
			out = p.alloc(src.shape, n)
			copy(out.rows(), src.rows())
			for _, pos := range e.inputs[i][1:] {
				if x := p.acts[pos]; !x.shape.Equal(src.shape) {
					return activation{}, 0, fmt.Errorf("nn: layer %q: %w", l.Name, combineShapeError(l.Op, src.shape, x.shape))
				}
				combine(l.Op, out.rows(), p.acts[pos].rows())
			}
		case graph.OpSoftmax:
			// Row-wise softmax of the block matrix is each sample's softmax.
			out = p.alloc(src.shape, n)
			copy(out.rows(), tensor.Softmax(tensor.FromSlice(src.rows(), n, src.width)).Data())
		case graph.OpFlatten:
			out = activation{shape: tensor.Shape{src.width}, width: src.width, buf: src.buf}
			out.buf.users++
		case graph.OpDropout, graph.OpIdentity:
			out = src
			out.buf.users++
		default:
			var r int
			var err error
			if out, r, err = p.perRow(l, e.inputs[i], n); err != nil {
				return activation{}, r, fmt.Errorf("nn: layer %q: %w", l.Name, err)
			}
		}
		p.acts[i] = out
		for _, pos := range e.inputs[i] {
			if p.pending[pos]--; p.pending[pos] == 0 {
				p.release(p.acts[pos])
			}
		}
	}
	return p.acts[e.outPos], 0, nil
}

// perRow evaluates an operator that has no matrix form here — Conv2D,
// pools, norms, Embedding, Concat — by running Apply on each
// sample's row, so the operator's arithmetic exists once.
func (p *blockPass) perRow(l *graph.Layer, inputs []int, n int) (activation, int, error) {
	var out activation
	args := make([]*tensor.Tensor, len(inputs))
	for r := 0; r < n; r++ {
		for j, pos := range inputs {
			a := p.acts[pos]
			args[j] = tensor.FromSlice(a.row(r), a.shape...)
		}
		t, err := Apply(l, args)
		if err != nil {
			return activation{}, r, err
		}
		if r == 0 {
			out = p.alloc(t.Shape(), n)
		}
		copy(out.row(r), t.Data())
	}
	return out, 0, nil
}

// ForwardBatch runs each sample through the model and returns the outputs
// in order, each equal bit for bit to what Forward returns for it.
func (e *Executor) ForwardBatch(samples []*tensor.Tensor) ([]*tensor.Tensor, error) {
	outs := make([]*tensor.Tensor, len(samples))
	err := e.forEachBlock(samples, func(lo, n int, out activation) {
		for r := 0; r < n; r++ {
			t := tensor.New(out.shape...)
			copy(t.Data(), out.row(r))
			outs[lo+r] = t
		}
	})
	if err != nil {
		return nil, err
	}
	return outs, nil
}

// PredictBatch returns the argmax class index of each sample, as Predict
// does one sample at a time (ties go to the lowest index).
func (e *Executor) PredictBatch(samples []*tensor.Tensor) ([]int, error) {
	classes := make([]int, len(samples))
	var row *tensor.Tensor // one scratch row; Tensor.ArgMax owns the tie-break
	err := e.forEachBlock(samples, func(lo, n int, out activation) {
		if row == nil {
			row = tensor.New(out.width)
		}
		for r := 0; r < n; r++ {
			copy(row.Data(), out.row(r))
			classes[lo+r] = row.ArgMax()
		}
	})
	if err != nil {
		return nil, err
	}
	return classes, nil
}
