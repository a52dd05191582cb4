package tensor

import (
	"fmt"
	"math"
)

// MatMul multiplies a (m×k) by b (k×n) and returns an m×n tensor. Both
// operands must be rank-2.
func MatMul(a, b *Tensor) *Tensor {
	if a.shape.Rank() != 2 || b.shape.Rank() != 2 {
		panic(fmt.Errorf("%w: MatMul needs rank-2 operands, got %v and %v", ErrShape, a.shape, b.shape))
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Errorf("%w: MatMul inner dims %d vs %d", ErrShape, k, k2))
	}
	out := New(m, n)
	// ikj loop order keeps the inner loop streaming over contiguous rows
	// of b and out, which matters for the larger models in the zoo.
	for i := 0; i < m; i++ {
		arow := a.data[i*k : (i+1)*k]
		orow := out.data[i*n : (i+1)*n]
		for kk := 0; kk < k; kk++ {
			av := arow[kk]
			if av == 0 {
				continue
			}
			brow := b.data[kk*n : (kk+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// Summation-order rule. Every dot product in this file adds its terms in
// index order into an accumulator that starts at zero, exactly as the
// one-row loop `s := 0.0; for j { s += w[j] * x[j] }` does. The blocked
// kernels below only run several such sums side by side — independent
// accumulators, one per output element — so their results equal the
// one-row loop's bit for bit (NaN, ±Inf and −0 included) and the
// equivalence evidence computed through them does not depend on how a
// batch was blocked.

// MatVec multiplies a (m×k) by vector x (k) and returns a length-m vector.
func MatVec(a, x *Tensor) *Tensor {
	if a.shape.Rank() != 2 || x.shape.Rank() != 1 {
		panic(fmt.Errorf("%w: MatVec needs (2,1) ranks, got %v and %v", ErrShape, a.shape, x.shape))
	}
	m, k := a.shape[0], a.shape[1]
	if k != x.shape[0] {
		panic(fmt.Errorf("%w: MatVec dims %d vs %d", ErrShape, k, x.shape[0]))
	}
	out := New(m)
	matVec(out.data, a.data, x.data, nil)
	return out
}

// matVec sets out[i] = Σⱼ a[i][j]·x[j] (+ bias[i] when bias is non-nil)
// for the len(out) rows of a, four rows per pass over x: one row's sum
// is a serial chain of dependent adds, four are four chains the
// processor overlaps.
func matVec(out, a, x, bias []float64) {
	m, k := len(out), len(x)
	i := 0
	for ; i+4 <= m; i += 4 {
		r0 := a[(i+0)*k:][:k]
		r1 := a[(i+1)*k:][:k]
		r2 := a[(i+2)*k:][:k]
		r3 := a[(i+3)*k:][:k]
		var s0, s1, s2, s3 float64
		for j, xv := range x {
			s0 += r0[j] * xv
			s1 += r1[j] * xv
			s2 += r2[j] * xv
			s3 += r3[j] * xv
		}
		out[i], out[i+1], out[i+2], out[i+3] = s0, s1, s2, s3
	}
	for ; i < m; i++ {
		row := a[i*k:][:k]
		s := 0.0
		for j, xv := range x {
			s += row[j] * xv
		}
		out[i] = s
	}
	if bias != nil {
		for i, b := range bias[:m] {
			out[i] += b
		}
	}
}

// DenseBatch is the dense-layer kernel: for n input rows of k values in
// x it writes y = x·Wᵀ + b, n rows of m values, with w (m×k) and b (m).
// Each y[s][i] is the zero-started, index-ordered sum Σⱼ w[i][j]·x[s][j]
// with b[i] added last — what MatVec followed by AddInPlace computes for
// one row — so the result does not depend on n or on how callers split
// a batch.
func DenseBatch(y, x []float64, w, b *Tensor) {
	if w.shape.Rank() != 2 || b.shape.Rank() != 1 || b.shape[0] != w.shape[0] {
		panic(fmt.Errorf("%w: DenseBatch needs W (m,k) and B (m), got %v and %v", ErrShape, w.shape, b.shape))
	}
	m, k := w.shape[0], w.shape[1]
	if k == 0 || len(x)%k != 0 || len(y) != len(x)/k*m {
		panic(fmt.Errorf("%w: DenseBatch %d inputs and %d outputs for W %v", ErrShape, len(x), len(y), w.shape))
	}
	for s := 0; s*k < len(x); s++ {
		matVec(y[s*m:][:m], w.data, x[s*k:][:k], b.data)
	}
}

// Transpose returns the transpose of a rank-2 tensor.
func Transpose(a *Tensor) *Tensor {
	if a.shape.Rank() != 2 {
		panic(fmt.Errorf("%w: Transpose needs rank-2, got %v", ErrShape, a.shape))
	}
	m, n := a.shape[0], a.shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.data[j*m+i] = a.data[i*n+j]
		}
	}
	return out
}

// SpectralNorm estimates the largest singular value of a rank-2 tensor via
// power iteration on AᵀA. iters controls accuracy; 30 is plenty for the
// bound computations, which tolerate a few percent of slack.
func SpectralNorm(a *Tensor, iters int) float64 {
	if a.shape.Rank() != 2 {
		panic(fmt.Errorf("%w: SpectralNorm needs rank-2, got %v", ErrShape, a.shape))
	}
	m, n := a.shape[0], a.shape[1]
	if m == 0 || n == 0 {
		return 0
	}
	if iters <= 0 {
		iters = 30
	}
	// Deterministic start vector: all ones, plus a ramp to avoid landing
	// exactly in a null space of structured matrices.
	u, v := make([]float64, m), make([]float64, n)
	for i := range v {
		v[i] = 1 + float64(i%7)*1e-3
	}
	normalize(v)
	var sigma float64
	for it := 0; it < iters; it++ {
		// u = A v ; v = Aᵀ u
		matVec(u, a.data, v, nil)
		sigma = l2Norm(u)
		if sigma == 0 {
			return 0
		}
		normalize(u)
		matTVec(v, a.data, u)
		if l2Norm(v) == 0 {
			return sigma
		}
		normalize(v)
	}
	return sigma
}

// matTVec sets out = Aᵀu for the len(u)×len(out) matrix a: out[j] is the
// zero-started sum of a[i][j]·u[i] over the rows with u[i] ≠ 0, in row
// order. Four such rows are folded into a register before each store.
func matTVec(out, a, u []float64) {
	n := len(out)
	for j := range out {
		out[j] = 0
	}
	var rows [4][]float64
	var us [4]float64
	pending := 0
	for i, ui := range u {
		if ui == 0 {
			continue
		}
		rows[pending], us[pending] = a[i*n:][:n], ui
		if pending++; pending < 4 {
			continue
		}
		pending = 0
		r0, r1, r2, r3 := rows[0][:n], rows[1][:n], rows[2][:n], rows[3][:n]
		u0, u1, u2, u3 := us[0], us[1], us[2], us[3]
		for j, t := range out {
			t += r0[j] * u0
			t += r1[j] * u1
			t += r2[j] * u2
			t += r3[j] * u3
			out[j] = t
		}
	}
	for p := 0; p < pending; p++ {
		row, up := rows[p][:n], us[p]
		for j := range out {
			out[j] += row[j] * up
		}
	}
}

func l2Norm(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

func normalize(v []float64) {
	n := l2Norm(v)
	if n == 0 {
		return
	}
	inv := 1 / n
	for i := range v {
		v[i] *= inv
	}
}

// FrobeniusNorm returns the Frobenius norm of any tensor.
func FrobeniusNorm(a *Tensor) float64 { return a.L2Norm() }

// Softmax returns the softmax of a rank-1 tensor, or row-wise softmax of a
// rank-2 tensor.
func Softmax(a *Tensor) *Tensor {
	if r := a.shape.Rank(); r != 1 && r != 2 {
		panic(fmt.Errorf("%w: Softmax needs rank 1 or 2, got %v", ErrShape, a.shape))
	}
	out := New(a.shape...)
	n := a.shape[a.shape.Rank()-1]
	for lo := 0; lo < len(a.data); lo += n {
		softmaxRow(out.data[lo:lo+n], a.data[lo:lo+n])
	}
	return out
}

func softmaxRow(out, row []float64) {
	m := row[0]
	for _, v := range row[1:] {
		if v > m {
			m = v
		}
	}
	s := 0.0
	for i, v := range row {
		e := math.Exp(v - m)
		out[i] = e
		s += e
	}
	inv := 1 / s
	for i := range out {
		out[i] *= inv
	}
}
