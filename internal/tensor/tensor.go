// Package tensor provides the dense numeric substrate for the Sommelier
// reproduction: shapes, float64 tensors, linear algebra (including the
// spectral-norm estimates the equivalence bounds in internal/equiv rely
// on), and seeded random fills so every experiment is deterministic.
package tensor

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Shape describes the extent of each tensor dimension, outermost first.
type Shape []int

// NumElements returns the product of all dimensions. The empty shape is a
// scalar and has one element.
func (s Shape) NumElements() int {
	n := 1
	for _, d := range s {
		n *= d
	}
	return n
}

// Rank returns the number of dimensions.
func (s Shape) Rank() int { return len(s) }

// Equal reports whether two shapes have identical rank and extents.
func (s Shape) Equal(o Shape) bool {
	if len(s) != len(o) {
		return false
	}
	for i, d := range s {
		if d != o[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the shape.
func (s Shape) Clone() Shape {
	c := make(Shape, len(s))
	copy(c, s)
	return c
}

// Valid reports whether every dimension is positive.
func (s Shape) Valid() bool {
	for _, d := range s {
		if d <= 0 {
			return false
		}
	}
	return true
}

func (s Shape) String() string {
	parts := make([]string, len(s))
	for i, d := range s {
		parts[i] = fmt.Sprint(d)
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// Tensor is a dense, row-major float64 tensor.
type Tensor struct {
	shape Shape
	data  []float64
}

// ErrShape is returned when an operation receives incompatible shapes.
var ErrShape = errors.New("tensor: shape mismatch")

// New allocates a zero-filled tensor of the given shape.
func New(shape ...int) *Tensor {
	s := Shape(shape).Clone()
	if !s.Valid() {
		panic(fmt.Sprintf("tensor: invalid shape %v", s))
	}
	return &Tensor{shape: s, data: make([]float64, s.NumElements())}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly, not copied; len(data) must equal shape.NumElements().
func FromSlice(data []float64, shape ...int) *Tensor {
	s := Shape(shape).Clone()
	if s.NumElements() != len(data) {
		panic(fmt.Sprintf("tensor: %d elements do not fit shape %v", len(data), s))
	}
	return &Tensor{shape: s, data: data}
}

// Shape returns the tensor's shape. Callers must not mutate it.
func (t *Tensor) Shape() Shape { return t.shape }

// Data returns the backing slice in row-major order. Mutations are visible
// to the tensor.
func (t *Tensor) Data() []float64 { return t.data }

// NumElements returns the total element count.
func (t *Tensor) NumElements() int { return len(t.data) }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// Reshape returns a view with a new shape covering the same data.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	s := Shape(shape).Clone()
	if s.NumElements() != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v to %v", t.shape, s))
	}
	return &Tensor{shape: s, data: t.data}
}

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float64 {
	return t.data[t.offset(idx)]
}

// Set assigns the element at the given multi-dimensional index.
func (t *Tensor) Set(v float64, idx ...int) {
	t.data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d vs shape %v", len(idx), t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Fill sets every element to v and returns the tensor.
func (t *Tensor) Fill(v float64) *Tensor {
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Apply replaces each element x with f(x) in place and returns the tensor.
func (t *Tensor) Apply(f func(float64) float64) *Tensor {
	for i, v := range t.data {
		t.data[i] = f(v)
	}
	return t
}

// Map returns a new tensor whose elements are f applied to t's elements.
func (t *Tensor) Map(f func(float64) float64) *Tensor {
	return t.Clone().Apply(f)
}

// Add returns t + o elementwise.
func (t *Tensor) Add(o *Tensor) *Tensor {
	r, err := zipSameShape(t, o, func(a, b float64) float64 { return a + b })
	if err != nil {
		panic(err)
	}
	return r
}

// Sub returns t - o elementwise.
func (t *Tensor) Sub(o *Tensor) *Tensor {
	r, err := zipSameShape(t, o, func(a, b float64) float64 { return a - b })
	if err != nil {
		panic(err)
	}
	return r
}

// Mul returns the elementwise (Hadamard) product t * o.
func (t *Tensor) Mul(o *Tensor) *Tensor {
	r, err := zipSameShape(t, o, func(a, b float64) float64 { return a * b })
	if err != nil {
		panic(err)
	}
	return r
}

// Scale returns t multiplied by scalar k.
func (t *Tensor) Scale(k float64) *Tensor {
	return t.Map(func(v float64) float64 { return v * k })
}

// AddInPlace accumulates o into t elementwise.
func (t *Tensor) AddInPlace(o *Tensor) {
	if !t.shape.Equal(o.shape) {
		panic(fmt.Errorf("%w: %v vs %v", ErrShape, t.shape, o.shape))
	}
	for i := range t.data {
		t.data[i] += o.data[i]
	}
}

func zipSameShape(a, b *Tensor, f func(float64, float64) float64) (*Tensor, error) {
	if !a.shape.Equal(b.shape) {
		return nil, fmt.Errorf("%w: %v vs %v", ErrShape, a.shape, b.shape)
	}
	r := New(a.shape...)
	for i := range a.data {
		r.data[i] = f(a.data[i], b.data[i])
	}
	return r, nil
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for empty tensors).
func (t *Tensor) Mean() float64 {
	if len(t.data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.data))
}

// Max returns the largest element. It panics on an empty tensor.
func (t *Tensor) Max() float64 {
	if len(t.data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	m := t.data[0]
	for _, v := range t.data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// ArgMax returns the index (in flattened row-major order) of the largest
// element, breaking ties toward the lowest index.
func (t *Tensor) ArgMax() int {
	if len(t.data) == 0 {
		panic("tensor: ArgMax of empty tensor")
	}
	best, bi := t.data[0], 0
	for i, v := range t.data[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}

// L2Norm returns the Euclidean norm of the flattened tensor.
func (t *Tensor) L2Norm() float64 { return l2Norm(t.data) }

// L2Distance returns the Euclidean distance between the flattened tensors.
func L2Distance(a, b *Tensor) float64 {
	if len(a.data) != len(b.data) {
		panic(fmt.Errorf("%w: %v vs %v", ErrShape, a.shape, b.shape))
	}
	s := 0.0
	for i := range a.data {
		d := a.data[i] - b.data[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// CosineSimilarity returns the cosine of the angle between the flattened
// tensors, or 0 if either has zero norm.
func CosineSimilarity(a, b *Tensor) float64 {
	if len(a.data) != len(b.data) {
		panic(fmt.Errorf("%w: %v vs %v", ErrShape, a.shape, b.shape))
	}
	var dot, na, nb float64
	for i := range a.data {
		dot += a.data[i] * b.data[i]
		na += a.data[i] * a.data[i]
		nb += b.data[i] * b.data[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

func (t *Tensor) String() string {
	if len(t.data) <= 8 {
		return fmt.Sprintf("Tensor%v%v", t.shape, t.data)
	}
	return fmt.Sprintf("Tensor%v[%g %g %g ... %g]", t.shape, t.data[0], t.data[1], t.data[2], t.data[len(t.data)-1])
}
