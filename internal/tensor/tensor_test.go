package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestShapeNumElements(t *testing.T) {
	cases := []struct {
		shape Shape
		want  int
	}{
		{Shape{}, 1},
		{Shape{5}, 5},
		{Shape{2, 3}, 6},
		{Shape{4, 1, 7}, 28},
	}
	for _, c := range cases {
		if got := c.shape.NumElements(); got != c.want {
			t.Errorf("NumElements(%v) = %d, want %d", c.shape, got, c.want)
		}
	}
}

func TestShapeEqualAndClone(t *testing.T) {
	a := Shape{2, 3}
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatalf("clone not equal: %v vs %v", a, b)
	}
	b[0] = 9
	if a.Equal(b) {
		t.Fatal("mutating clone affected original comparison")
	}
	if a.Equal(Shape{2, 3, 1}) {
		t.Fatal("shapes of different rank reported equal")
	}
}

func TestNewZeroFilled(t *testing.T) {
	x := New(3, 4)
	if x.NumElements() != 12 {
		t.Fatalf("NumElements = %d, want 12", x.NumElements())
	}
	for i, v := range x.Data() {
		if v != 0 {
			t.Fatalf("element %d = %g, want 0", i, v)
		}
	}
}

func TestAtSetOffsets(t *testing.T) {
	x := New(2, 3)
	x.Set(1.5, 1, 2)
	if got := x.At(1, 2); got != 1.5 {
		t.Fatalf("At(1,2) = %g, want 1.5", got)
	}
	if got := x.Data()[5]; got != 1.5 {
		t.Fatalf("flat[5] = %g, want 1.5 (row-major layout)", got)
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range index")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestFromSliceSharesData(t *testing.T) {
	d := []float64{1, 2, 3, 4}
	x := FromSlice(d, 2, 2)
	d[0] = 9
	if x.At(0, 0) != 9 {
		t.Fatal("FromSlice should wrap, not copy")
	}
}

func TestCloneIndependence(t *testing.T) {
	x := FromSlice([]float64{1, 2}, 2)
	y := x.Clone()
	y.Data()[0] = 7
	if x.Data()[0] != 1 {
		t.Fatal("Clone shares data with original")
	}
}

func TestReshapeView(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	if !y.Shape().Equal(Shape{3, 2}) {
		t.Fatalf("reshape shape = %v", y.Shape())
	}
	y.Data()[0] = 10
	if x.Data()[0] != 10 {
		t.Fatal("Reshape should be a view over the same data")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{4, 5, 6}, 3)
	if got := a.Add(b).Data(); got[0] != 5 || got[2] != 9 {
		t.Errorf("Add = %v", got)
	}
	if got := b.Sub(a).Data(); got[0] != 3 || got[2] != 3 {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Mul(b).Data(); got[1] != 10 {
		t.Errorf("Mul = %v", got)
	}
	if got := a.Scale(2).Data(); got[2] != 6 {
		t.Errorf("Scale = %v", got)
	}
}

func TestAddShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	New(2).Add(New(3))
}

func TestReductions(t *testing.T) {
	x := FromSlice([]float64{3, -1, 4, 1}, 4)
	if x.Sum() != 7 {
		t.Errorf("Sum = %g", x.Sum())
	}
	if x.Mean() != 1.75 {
		t.Errorf("Mean = %g", x.Mean())
	}
	if x.Max() != 4 {
		t.Errorf("Max = %g", x.Max())
	}
	if x.ArgMax() != 2 {
		t.Errorf("ArgMax = %d", x.ArgMax())
	}
}

func TestArgMaxTieBreaksLow(t *testing.T) {
	x := FromSlice([]float64{5, 5, 1}, 3)
	if x.ArgMax() != 0 {
		t.Fatalf("ArgMax tie = %d, want 0", x.ArgMax())
	}
}

func TestL2NormAndDistance(t *testing.T) {
	a := FromSlice([]float64{3, 4}, 2)
	if !almostEqual(a.L2Norm(), 5, 1e-12) {
		t.Errorf("L2Norm = %g", a.L2Norm())
	}
	b := FromSlice([]float64{0, 0}, 2)
	if !almostEqual(L2Distance(a, b), 5, 1e-12) {
		t.Errorf("L2Distance = %g", L2Distance(a, b))
	}
}

func TestCosineSimilarity(t *testing.T) {
	a := FromSlice([]float64{1, 0}, 2)
	b := FromSlice([]float64{0, 1}, 2)
	if !almostEqual(CosineSimilarity(a, a), 1, 1e-12) {
		t.Errorf("cos(a,a) = %g", CosineSimilarity(a, a))
	}
	if !almostEqual(CosineSimilarity(a, b), 0, 1e-12) {
		t.Errorf("cos(a,b) = %g", CosineSimilarity(a, b))
	}
	z := New(2)
	if CosineSimilarity(a, z) != 0 {
		t.Error("cosine with zero vector should be 0")
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{5, 6, 7, 8}, 2, 2)
	c := MatMul(a, b)
	want := []float64{19, 22, 43, 50}
	for i, v := range c.Data() {
		if v != want[i] {
			t.Fatalf("MatMul[%d] = %g, want %g", i, v, want[i])
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := NewRNG(7)
	a := New(4, 4)
	rng.FillNormal(a, 0, 1)
	id := New(4, 4)
	for i := 0; i < 4; i++ {
		id.Set(1, i, i)
	}
	c := MatMul(a, id)
	for i := range a.Data() {
		if !almostEqual(c.Data()[i], a.Data()[i], 1e-12) {
			t.Fatalf("A*I differs at %d", i)
		}
	}
}

func TestMatVecMatchesMatMul(t *testing.T) {
	rng := NewRNG(11)
	a := New(3, 5)
	rng.FillNormal(a, 0, 1)
	x := New(5)
	rng.FillNormal(x, 0, 1)
	got := MatVec(a, x)
	want := MatMul(a, x.Reshape(5, 1)).Reshape(3)
	for i := range got.Data() {
		if !almostEqual(got.Data()[i], want.Data()[i], 1e-10) {
			t.Fatalf("MatVec[%d] = %g, want %g", i, got.Data()[i], want.Data()[i])
		}
	}
}

func TestTranspose(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	at := Transpose(a)
	if !at.Shape().Equal(Shape{3, 2}) {
		t.Fatalf("transpose shape %v", at.Shape())
	}
	if at.At(2, 1) != a.At(1, 2) {
		t.Fatal("transpose values wrong")
	}
}

func TestSpectralNormDiagonal(t *testing.T) {
	// For a diagonal matrix the spectral norm is the largest |entry|.
	a := New(3, 3)
	a.Set(2, 0, 0)
	a.Set(-5, 1, 1)
	a.Set(1, 2, 2)
	got := SpectralNorm(a, 50)
	if !almostEqual(got, 5, 1e-6) {
		t.Fatalf("SpectralNorm = %g, want 5", got)
	}
}

func TestSpectralNormZero(t *testing.T) {
	if got := SpectralNorm(New(3, 4), 10); got != 0 {
		t.Fatalf("SpectralNorm(zero) = %g", got)
	}
}

func TestSpectralNormBoundsFrobenius(t *testing.T) {
	// sigma_max <= ||A||_F always; check on random matrices.
	rng := NewRNG(3)
	for trial := 0; trial < 5; trial++ {
		a := New(6, 4)
		rng.FillNormal(a, 0, 1)
		s := SpectralNorm(a, 60)
		f := FrobeniusNorm(a)
		if s > f+1e-9 {
			t.Fatalf("spectral %g exceeds Frobenius %g", s, f)
		}
		if s <= 0 {
			t.Fatalf("spectral norm of random matrix should be positive")
		}
	}
}

func TestSoftmaxProperties(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3}, 3)
	s := Softmax(x)
	if !almostEqual(s.Sum(), 1, 1e-12) {
		t.Fatalf("softmax sums to %g", s.Sum())
	}
	if s.ArgMax() != 2 {
		t.Fatal("softmax should preserve argmax")
	}
	// Row-wise for rank 2.
	m := FromSlice([]float64{1, 2, 5, 1}, 2, 2)
	sm := Softmax(m)
	if !almostEqual(sm.Data()[0]+sm.Data()[1], 1, 1e-12) {
		t.Fatal("row 0 not normalized")
	}
	if !almostEqual(sm.Data()[2]+sm.Data()[3], 1, 1e-12) {
		t.Fatal("row 1 not normalized")
	}
	// Into caller storage, the same bits.
	dst := make([]float64, 4)
	SoftmaxRows(dst, m.Data(), 2)
	for i, v := range dst {
		if math.Float64bits(v) != math.Float64bits(sm.Data()[i]) {
			t.Fatalf("SoftmaxRows[%d] = %v, Softmax %v", i, v, sm.Data()[i])
		}
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	x := FromSlice([]float64{1000, 1001}, 2)
	s := Softmax(x)
	if math.IsNaN(s.Sum()) || !almostEqual(s.Sum(), 1, 1e-9) {
		t.Fatalf("softmax unstable: %v", s.Data())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed should give same stream")
		}
	}
	if NewRNG(1).Uint64() == NewRNG(2).Uint64() {
		t.Fatal("different seeds should (almost surely) differ")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 1000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %g", v)
		}
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(5)
	n := 20000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sq += v * v
	}
	mean := sum / float64(n)
	variance := sq/float64(n) - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Errorf("normal mean = %g", mean)
	}
	if math.Abs(variance-1) > 0.1 {
		t.Errorf("normal variance = %g", variance)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(77)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestFillXavierScale(t *testing.T) {
	r := NewRNG(13)
	w := New(100, 100)
	r.FillXavier(w)
	var sq float64
	for _, v := range w.Data() {
		sq += v * v
	}
	std := math.Sqrt(sq / float64(w.NumElements()))
	want := math.Sqrt(2.0 / 200.0)
	if math.Abs(std-want)/want > 0.1 {
		t.Fatalf("xavier std = %g, want ~%g", std, want)
	}
}

// Property: triangle inequality for L2Distance.
func TestPropertyTriangleInequality(t *testing.T) {
	f := func(xs, ys, zs [4]float64) bool {
		a := FromSlice(xs[:], 4)
		b := FromSlice(ys[:], 4)
		c := FromSlice(zs[:], 4)
		return L2Distance(a, c) <= L2Distance(a, b)+L2Distance(b, c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: MatMul distributes over addition: A(B+C) = AB + AC.
func TestPropertyMatMulDistributive(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		a, b, c := New(3, 4), New(4, 2), New(4, 2)
		rng.FillNormal(a, 0, 1)
		rng.FillNormal(b, 0, 1)
		rng.FillNormal(c, 0, 1)
		left := MatMul(a, b.Add(c))
		right := MatMul(a, b).Add(MatMul(a, c))
		for i := range left.Data() {
			if !almostEqual(left.Data()[i], right.Data()[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: ||Ax|| <= sigma_max(A) * ||x|| for unit vectors x — the exact
// inequality the error-propagation bounds in internal/equiv rely on.
func TestPropertySpectralNormDominates(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		a := New(5, 5)
		rng.FillNormal(a, 0, 1)
		sigma := SpectralNorm(a, 80)
		x := New(5)
		rng.FillNormal(x, 0, 1)
		// Allow 1% slack for power-iteration convergence.
		return MatVec(a, x).L2Norm() <= sigma*x.L2Norm()*1.01+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: softmax output is a probability vector for any input.
func TestPropertySoftmaxSimplex(t *testing.T) {
	f := func(xs [6]float64) bool {
		for _, v := range xs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true // skip degenerate quick inputs
			}
		}
		s := Softmax(FromSlice(xs[:], 6))
		sum := 0.0
		for _, v := range s.Data() {
			if v < 0 || v > 1 {
				return false
			}
			sum += v
		}
		return almostEqual(sum, 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
