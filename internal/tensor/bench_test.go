package tensor

import (
	"fmt"
	"testing"
)

func benchMatrix(n int, seed uint64) *Tensor {
	m := New(n, n)
	NewRNG(seed).FillNormal(m, 0, 1)
	return m
}

func BenchmarkMatMul128(b *testing.B) {
	x := benchMatrix(128, 1)
	y := benchMatrix(128, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}

func BenchmarkMatVec1024(b *testing.B) {
	m := benchMatrix(1024, 3)
	v := New(1024)
	NewRNG(4).FillNormal(v, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatVec(m, v)
	}
}

func BenchmarkSpectralNorm256(b *testing.B) {
	m := benchMatrix(256, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SpectralNorm(m, 30)
	}
}

// BenchmarkDenseBatch times the dense-layer kernel on square layers at
// one row (what a single-sample forward pass issues) and at a 32-row
// block (what the batched pass issues); ns/op divided by rows is the
// per-sample cost.
func BenchmarkDenseBatch(b *testing.B) {
	for _, width := range []int{40, 128, 512} {
		for _, rows := range []int{1, 32} {
			b.Run(fmt.Sprintf("width=%d/rows=%d", width, rows), func(b *testing.B) {
				w := benchMatrix(width, 8)
				bias := New(width)
				x, y := New(rows, width), New(rows, width)
				rng := NewRNG(9)
				rng.FillNormal(bias, 0, 1)
				rng.FillNormal(x, 0, 1)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					DenseBatch(y.data, x.data, w, bias)
				}
			})
		}
	}
}

func BenchmarkSoftmax4096(b *testing.B) {
	v := New(4096)
	NewRNG(6).FillNormal(v, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Softmax(v)
	}
}

func BenchmarkRNGNormal(b *testing.B) {
	r := NewRNG(7)
	for i := 0; i < b.N; i++ {
		r.NormFloat64()
	}
}
