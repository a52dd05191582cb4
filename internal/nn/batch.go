package nn

import (
	"fmt"
	"slices"

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
// layers that hold it and still have readers to come. A pinned buffer
// is a resumed pass's view of its caller's rows: it is read, and never
// recycled into the pass's scratch.
type buffer struct {
	data   []float64
	users  int
	pinned bool
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
	if a.buf.users--; a.buf.users == 0 && !a.buf.pinned {
		p.free = append(p.free, a.buf)
	}
}

// Activations is one layer's output for every sample of a batched
// pass: a row of Shape.NumElements() values per sample, in sample order.
type Activations struct {
	Shape tensor.Shape // of one sample
	Data  []float64
}

// A Pass is a batched pass over part of the model. It may resume after
// a cut, from that cut's activations, and it may keep the activations
// of later cuts. A cut is a position in the executor's order (Layers)
// that no later layer reads past, so its activation is all the rest of
// the model needs: Cuts lists them. Since every operator sees exactly
// the values a whole pass would give it, a resumed pass's outputs are
// bit-identical to the whole pass's, and so are the activations it
// keeps.
type Pass struct {
	// From is the cut the pass resumes after when Resume is non-nil;
	// Resume holds its activations for every sample, which the pass
	// reads and never writes. The samples are then only counted: no
	// layer up to From runs, the preprocessor included.
	From   int
	Resume *Activations
	// Keep lists cuts past From whose activations the pass returns in
	// Kept, index for index.
	Keep []int
	Kept []Activations
}

// Cuts returns the positions a Pass may resume after or keep, in
// order: every layer but the input and the output after which no layer
// reads an earlier position.
func (e *Executor) Cuts() []int {
	var cuts []int
	low := len(e.order) // the least position read by any layer after i
	for i := len(e.order) - 1; i > 0; i-- {
		if low >= i && i < e.outPos {
			cuts = append(cuts, i)
		}
		for _, pos := range e.inputs[i] {
			low = min(low, pos)
		}
	}
	slices.Reverse(cuts)
	return cuts
}

// check reports whether pass fits this executor and n samples.
func (pass *Pass) check(e *Executor, n int) error {
	cuts := e.Cuts()
	isCut := func(pos int) bool { _, ok := slices.BinarySearch(cuts, pos); return ok }
	if r := pass.Resume; r != nil {
		if !isCut(pass.From) {
			return fmt.Errorf("nn: position %d is not a cut of %q", pass.From, e.model.Name)
		}
		if len(r.Data) != n*r.Shape.NumElements() {
			return fmt.Errorf("nn: resuming %q with %d values for %d samples of shape %v",
				e.model.Name, len(r.Data), n, r.Shape)
		}
	}
	for _, pos := range pass.Keep {
		if !isCut(pos) || (pass.Resume != nil && pos <= pass.From) {
			return fmt.Errorf("nn: position %d is not a cut past the start of %q's pass", pos, e.model.Name)
		}
	}
	return nil
}

// forEachBlock runs samples through the model batchBlock at a time and
// hands emit the output activation of each block with the index of the
// block's first sample and its row count. Every operator sees exactly the
// per-sample values the single-sample pass would give it, so outputs
// are bit-identical to Forward's whatever the batch size. A non-nil
// pass resumes the blocks after its cut and keeps its cuts' rows.
func (e *Executor) forEachBlock(samples []*tensor.Tensor, pass *Pass, emit func(lo, n int, out activation)) error {
	from, lo := -1, 0 // -1: the block starts at the input layer
	var resume *Activations
	var keep func(pos int, a activation)
	if pass != nil {
		if err := pass.check(e, len(samples)); err != nil {
			return err
		}
		if resume = pass.Resume; resume != nil {
			from = pass.From
		}
		pass.Kept = make([]Activations, len(pass.Keep))
		if len(pass.Keep) > 0 {
			keep = func(pos int, a activation) {
				for k, at := range pass.Keep {
					if at != pos {
						continue
					}
					kept := &pass.Kept[k]
					if kept.Data == nil {
						kept.Shape, kept.Data = a.shape, make([]float64, len(samples)*a.width)
					}
					copy(kept.Data[lo*a.width:], a.rows())
				}
			}
		}
	}
	p := &blockPass{e: e, acts: make([]activation, len(e.order)), pending: make([]int, len(e.order))}
	for ; lo < len(samples); lo += batchBlock {
		n := min(batchBlock, len(samples)-lo)
		var in activation
		if resume != nil {
			w := resume.Shape.NumElements()
			in = activation{shape: resume.Shape, width: w,
				buf: &buffer{data: resume.Data[lo*w : (lo+n)*w], users: 1, pinned: true}}
		} else {
			in = p.alloc(e.model.InputShape, n)
			for r, s := range samples[lo : lo+n] {
				x, err := e.prepare(s)
				if err != nil {
					return fmt.Errorf("nn: sample %d: %w", lo+r, err)
				}
				copy(in.row(r), x.Data())
			}
		}
		out, r, err := p.run(in, from, n, keep)
		if err != nil {
			return fmt.Errorf("nn: sample %d: %w", lo+r, err)
		}
		emit(lo, n, out)
		p.release(out)
	}
	return nil
}

// run carries one block of n samples through the model and returns the
// output layer's activation: from the input layer, which holds in, or
// with from >= 0 from the layers after cut from, whose activation in
// is. keep, when the pass keeps cuts, sees each layer's activation as
// it is made. On error run also returns the row the failing operator
// was working on.
func (p *blockPass) run(in activation, from, n int, keep func(pos int, a activation)) (activation, int, error) {
	e := p.e
	copy(p.pending, e.readers)
	if from >= 0 {
		p.acts[from] = in
	}
	for i := from + 1; i < len(e.order); i++ {
		l := e.order[i]
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
			tensor.SoftmaxRows(out.rows(), src.rows(), src.width)
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
		if keep != nil {
			keep(i, out)
		}
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
	return e.ForwardBatchPass(samples, nil)
}

// ForwardBatchPass is ForwardBatch over pass, or the whole model when
// pass is nil.
func (e *Executor) ForwardBatchPass(samples []*tensor.Tensor, pass *Pass) ([]*tensor.Tensor, error) {
	outs := make([]*tensor.Tensor, len(samples))
	err := e.forEachBlock(samples, pass, func(lo, n int, out activation) {
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
	return e.PredictBatchPass(samples, nil)
}

// PredictBatchPass is PredictBatch over pass, or the whole model when
// pass is nil.
func (e *Executor) PredictBatchPass(samples []*tensor.Tensor, pass *Pass) ([]int, error) {
	classes := make([]int, len(samples))
	var row *tensor.Tensor // one scratch row; Tensor.ArgMax owns the tie-break
	err := e.forEachBlock(samples, pass, func(lo, n int, out activation) {
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
