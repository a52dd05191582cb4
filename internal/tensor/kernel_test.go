package tensor

import (
	"errors"
	"math"
	"testing"
)

// The blocked kernels (matVec, matTVec, DenseBatch) promise the results
// of the one-row loops they replaced, bit for bit. Those loops live on
// here as the reference.

func refMatVec(a, x []float64, m, k int) []float64 {
	out := make([]float64, m)
	for i := 0; i < m; i++ {
		s := 0.0
		for j, v := range a[i*k : (i+1)*k] {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

func refMatTVec(a, u []float64, m, n int) []float64 {
	out := make([]float64, n)
	for i := 0; i < m; i++ {
		ui := u[i]
		if ui == 0 {
			continue
		}
		for j, v := range a[i*n : (i+1)*n] {
			out[j] += v * ui
		}
	}
	return out
}

// refDense is MatVec followed by AddInPlace, one input row at a time.
func refDense(x, w, b []float64, n, m, k int) []float64 {
	y := make([]float64, 0, n*m)
	for s := 0; s < n; s++ {
		row := refMatVec(w, x[s*k:(s+1)*k], m, k)
		for i := range row {
			row[i] += b[i]
		}
		y = append(y, row...)
	}
	return y
}

func refSpectralNorm(a *Tensor, iters int) float64 {
	m, n := a.shape[0], a.shape[1]
	if iters <= 0 {
		iters = 30
	}
	norm := func(v []float64) float64 {
		s := 0.0
		for _, x := range v {
			s += x * x
		}
		return math.Sqrt(s)
	}
	scale := func(v []float64) {
		if nv := norm(v); nv != 0 {
			inv := 1 / nv
			for i := range v {
				v[i] *= inv
			}
		}
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = 1 + float64(i%7)*1e-3
	}
	scale(v)
	var sigma float64
	for it := 0; it < iters; it++ {
		u := refMatVec(a.data, v, m, n)
		if sigma = norm(u); sigma == 0 {
			return 0
		}
		scale(u)
		v = refMatTVec(a.data, u, m, n)
		if norm(v) == 0 {
			return sigma
		}
		scale(v)
	}
	return sigma
}

// sameBits compares two results as IEEE bit patterns. Any NaN equals any
// NaN: which payload an operation propagates depends on operand order in
// the generated code, and nothing downstream reads a payload.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

func firstDiff(got, want []float64) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range got {
		if !sameBits(got[i], want[i]) {
			return i
		}
	}
	return -1
}

// fillKernelInput draws standard normals and, when specials is set,
// overwrites about one value in six with 0, −0, ±Inf or NaN.
func fillKernelInput(rng *RNG, v []float64, specials bool) {
	special := [...]float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
	for i := range v {
		v[i] = rng.NormFloat64()
		if specials && rng.Intn(6) == 0 {
			v[i] = special[rng.Intn(len(special))]
		}
	}
}

// checkKernels compares every blocked kernel with its reference on one
// seeded problem: n input rows, an m×k weight matrix.
func checkKernels(t testing.TB, seed uint64, n, m, k int, specials bool) {
	t.Helper()
	rng := NewRNG(seed)
	w, b := New(m, k), New(m)
	x, u := make([]float64, n*k), make([]float64, m)
	fillKernelInput(rng, w.data, specials)
	fillKernelInput(rng, b.data, specials)
	fillKernelInput(rng, x, specials)
	fillKernelInput(rng, u, specials)
	for i := range u { // the transposed product skips rows with u[i] == 0
		if rng.Intn(3) == 0 {
			u[i] = 0
		}
	}

	if i := firstDiff(MatVec(w, FromSlice(x[:k], k)).data, refMatVec(w.data, x[:k], m, k)); i >= 0 {
		t.Fatalf("seed %d n=%d m=%d k=%d: MatVec differs from the one-row loop at row %d", seed, n, m, k, i)
	}
	got := make([]float64, k)
	for i := range got {
		got[i] = math.NaN() // matTVec must overwrite, not accumulate into, its output
	}
	matTVec(got, w.data, u)
	if i := firstDiff(got, refMatTVec(w.data, u, m, k)); i >= 0 {
		t.Fatalf("seed %d m=%d k=%d: transposed product differs from the one-row loop at column %d", seed, m, k, i)
	}
	y := make([]float64, n*m)
	DenseBatch(y, x, w, b)
	if i := firstDiff(y, refDense(x, w.data, b.data, n, m, k)); i >= 0 {
		t.Fatalf("seed %d n=%d m=%d k=%d: DenseBatch differs from MatVec+AddInPlace at sample %d row %d", seed, n, m, k, i/m, i%m)
	}
}

// TestKernelsMatchOneRowReference sweeps every small shape — all
// remainders of the 4-row unrolls — and then seeded random ones, with
// and without special values.
func TestKernelsMatchOneRowReference(t *testing.T) {
	seed := uint64(1)
	for n := 1; n <= 5; n++ {
		for m := 1; m <= 9; m++ {
			for _, k := range []int{1, 2, 3, 7, 16} {
				checkKernels(t, seed, n, m, k, seed%2 == 0)
				seed++
			}
		}
	}
	rng := NewRNG(0xd07)
	for i := 0; i < 200; i++ {
		checkKernels(t, rng.Uint64(), 1+rng.Intn(40), 1+rng.Intn(70), 1+rng.Intn(70), i%2 == 0)
	}
}

func FuzzKernelsMatchOneRowReference(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint8(1), uint8(1), false)
	f.Add(uint64(2), uint8(3), uint8(5), uint8(7), true)
	f.Add(uint64(3), uint8(33), uint8(40), uint8(41), true)
	f.Fuzz(func(t *testing.T, seed uint64, n, m, k uint8, specials bool) {
		checkKernels(t, seed, 1+int(n)%48, 1+int(m)%48, 1+int(k)%48, specials)
	})
}

func TestDenseBatchRejectsMismatchedLengths(t *testing.T) {
	rejects := func(name string, y, x []float64, w, b *Tensor) {
		defer func() {
			if err, _ := recover().(error); !errors.Is(err, ErrShape) {
				t.Errorf("%s: panic %v, want ErrShape", name, err)
			}
		}()
		DenseBatch(y, x, w, b)
	}
	rejects("2 outputs for a 3-row layer", make([]float64, 2), make([]float64, 4), New(3, 4), New(3))
	rejects("a layer of no inputs", make([]float64, 3), nil, FromSlice(nil, 3, 0), New(3))
}

// TestSpectralNormUnchanged pins SpectralNorm to the values the
// allocating, one-row implementation returned (computed on the commit
// before the kernels were blocked) on BenchmarkSpectralNorm256's matrix
// and on layer shapes the zoo and the benchmark corpus use, then holds it
// to that implementation, kept above, over a ladder of shapes including
// matrices with zero rows (u[i] == 0 in the transposed product).
func TestSpectralNormUnchanged(t *testing.T) {
	pinned := []struct {
		m, n int
		seed uint64
		bits uint64
	}{
		{256, 256, 5, 0x403f4b2d1488098f},
		{32, 16, 11, 0x4020be0602a14b4c},
		{32, 32, 12, 0x4024a32bd5303582},
		{8, 32, 13, 0x401e1423cb16f783},
		{40, 40, 14, 0x4026af05a7a04ad5},
		{10, 128, 15, 0x402b0f00d7af5c15},
		{1, 7, 16, 0x3fff3c8bc97f5392},
		{7, 1, 17, 0x40068141b2d275ba},
		{5, 3, 18, 0x400b36aa86d5fd9b},
	}
	for _, c := range pinned {
		a := New(c.m, c.n)
		NewRNG(c.seed).FillNormal(a, 0, 1)
		if got := math.Float64bits(SpectralNorm(a, 30)); got != c.bits {
			t.Errorf("SpectralNorm(%d×%d, seed %d) = %#016x, parent commit %#016x", c.m, c.n, c.seed, got, c.bits)
		}
	}
	rng := NewRNG(0x51a)
	for i := 0; i < 60; i++ {
		m, n := 1+rng.Intn(50), 1+rng.Intn(50)
		a := New(m, n)
		rng.FillNormal(a, 0, 1)
		if i%4 == 0 { // zero rows
			for r := 0; r < m; r += 2 {
				for j := 0; j < n; j++ {
					a.data[r*n+j] = 0
				}
			}
		}
		iters := []int{0, 1, 30}[i%3]
		if got, want := SpectralNorm(a, iters), refSpectralNorm(a, iters); !sameBits(got, want) {
			t.Fatalf("SpectralNorm(%d×%d, iters %d) = %v, one-row implementation %v", m, n, iters, got, want)
		}
	}
}
