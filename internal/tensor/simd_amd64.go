package tensor

// useAVX2 routes matVec, matTVec and DenseBatch through the AVX2
// kernels in simd_amd64.s. It is set once, at package init, from CPUID
// and XGETBV: the processor has AVX2 and the OS saves YMM state. The
// package's tests clear it to run the scalar kernels on the same host.
var useAVX2 = cpuHasAVX2()

func cpuHasAVX2() bool

//go:noescape
func matVec16(out, a, x, bias []float64, r0, r1, r2, r3 int)

//go:noescape
func dense4x8(y, x, w, b []float64, k, m, r, s int)

//go:noescape
func matTVec16(out, a, u []float64, c0, c1, c2, c3 int)

// blockStart returns the first index of the b-th block of four of n ≥ 4
// indices. The last block ends at n, so when n is not a multiple of 4 it
// overlaps its neighbour and recomputes that neighbour's values bit for
// bit; a block past the last repeats the last.
func blockStart(b, n int) int {
	return min(4*min(b, (n+3)/4-1), n-4)
}

// matVecAVX2 is matVec for at least four rows, sixteen rows per kernel
// call.
func matVecAVX2(out, a, x, bias []float64) {
	m := len(out)
	_ = a[m*len(x)-1]
	if bias != nil {
		_ = bias[m-1]
	}
	for b := 0; 4*b < m; b += 4 {
		matVec16(out, a, x, bias, blockStart(b, m), blockStart(b+1, m), blockStart(b+2, m), blockStart(b+3, m))
	}
}

// matTVecAVX2 is matTVec for at least four columns, sixteen columns per
// pass over the rows.
func matTVecAVX2(out, a, u []float64) {
	n := len(out)
	_ = a[len(u)*n-1]
	for g := 0; 4*g < n; g += 4 {
		matTVec16(out, a, u, blockStart(g, n), blockStart(g+1, n), blockStart(g+2, n), blockStart(g+3, n))
	}
}

// denseBatchAVX2 is DenseBatch's loop for an m×k layer of at least four
// rows: eight samples at a time, each 4-row block of w loaded once for
// all eight, and a batch of fewer than eight one sample at a time. Like
// the row blocks, the last eight-sample group ends at the batch's end
// and may overlap its neighbour.
func denseBatchAVX2(y, x, w, b []float64, m, k int) {
	n := len(x) / k
	_, _, _ = y[n*m-1], w[m*k-1], b[m-1]
	if n < 8 {
		for s := 0; s < n; s++ {
			matVecAVX2(y[s*m:][:m], w, x[s*k:][:k], b)
		}
		return
	}
	for s := 0; s < n; s += 8 {
		first := min(s, n-8)
		for r := 0; r < m; r += 4 {
			dense4x8(y, x, w, b, k, m, min(r, m-4), first)
		}
	}
}
