//go:build !amd64

package tensor

// useAVX2 is false off amd64: the scalar kernels are the only ones.
var useAVX2 = false

const noAVX2 = "tensor: no AVX2 kernels on this architecture"

func matVecAVX2(out, a, x, bias []float64) { panic(noAVX2) }

func matTVecAVX2(out, a, u []float64) { panic(noAVX2) }

func denseBatchAVX2(y, x, w, b []float64, m, k int) { panic(noAVX2) }
