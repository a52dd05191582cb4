package chunk

import (
	"math"
	"strings"
	"testing"
)

func TestBytesFloatsRoundTrip(t *testing.T) {
	vals := []float64{0, 1.5, -2.75, math.Pi, math.SmallestNonzeroFloat64, math.MaxFloat64, math.Inf(1)}
	got, err := Join([][]byte{Bytes(vals)}, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if math.Float64bits(got[i]) != math.Float64bits(v) {
			t.Fatalf("value %d: %v != %v", i, got[i], v)
		}
	}
	if _, err := Join([][]byte{Bytes(vals), {1, 2, 3}}, len(vals)); err == nil {
		t.Fatal("expected error for ragged byte length")
	}
}

func TestSplitJoinRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 100} {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(i) * 1.25
		}
		var datas [][]byte
		hashes := Split(vals, 8, func(h string, data []byte) {
			if h != Hash(data) {
				t.Fatalf("emit hash mismatch")
			}
			datas = append(datas, append([]byte(nil), data...))
		})
		if len(hashes) == 0 {
			t.Fatalf("n=%d: no chunks", n)
		}
		wantChunks := (n + 7) / 8
		if n == 0 {
			wantChunks = 1
		}
		if len(hashes) != wantChunks {
			t.Fatalf("n=%d: %d chunks, want %d", n, len(hashes), wantChunks)
		}
		got, err := Join(datas, n)
		if err != nil {
			t.Fatal(err)
		}
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("n=%d: element %d differs", n, i)
			}
		}
	}
}

// TestJoinDoesNotTrustWant: want comes from an untrusted shape, so a
// negative or absurd count must be a mismatch error, not a panic or a
// terabyte allocation.
func TestJoinDoesNotTrustWant(t *testing.T) {
	datas := [][]byte{Bytes([]float64{1, 2, 3})}
	for _, want := range []int{-8, 1 << 40} {
		if _, err := Join(datas, want); err == nil {
			t.Fatalf("want=%d: accepted 3 elements", want)
		}
	}
}

func TestSplitDeterministicAndContentAddressed(t *testing.T) {
	vals := make([]float64, 20)
	for i := range vals {
		vals[i] = float64(i)
	}
	a := Split(vals, 8, nil)
	b := Split(vals, 8, nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same content produced different chunk lists")
		}
	}
	// Identical slices of content share addresses.
	c := Split(vals[:8], 8, nil)
	if c[0] != a[0] {
		t.Fatal("identical chunk content got different addresses")
	}
	if !ValidHash(a[0]) || ValidHash("zz") || ValidHash("") || ValidHash(strings.ToUpper(a[0])) {
		t.Fatal("ValidHash misclassifies")
	}
}

func TestDeltaRoundTrip(t *testing.T) {
	base := make([]float64, 1000)
	for i := range base {
		base[i] = float64(i)
	}
	vals := append([]float64(nil), base...)
	vals[3] = -1
	vals[4] = -2
	vals[999] = 42

	delta, ok := EncodeDelta(base, vals)
	if !ok {
		t.Fatal("sparse edit should delta-encode")
	}
	if len(delta) >= 8*len(vals) {
		t.Fatalf("delta (%d bytes) not smaller than dense (%d)", len(delta), 8*len(vals))
	}
	got := append([]float64(nil), base...)
	if err := ApplyDelta(got, delta); err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("element %d: %v != %v", i, got[i], vals[i])
		}
	}
}

func TestDeltaIdentical(t *testing.T) {
	base := []float64{1, 2, 3}
	delta, ok := EncodeDelta(base, base)
	if !ok || len(delta) != 0 {
		t.Fatalf("identical tensors: delta=%v ok=%v, want empty+true", delta, ok)
	}
	got := append([]float64(nil), base...)
	if err := ApplyDelta(got, delta); err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[2] != 3 {
		t.Fatal("empty delta changed values")
	}
}

func TestDeltaRefusesWhenDenseWins(t *testing.T) {
	base := make([]float64, 100)
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i) + 0.5 // every element differs
	}
	if _, ok := EncodeDelta(base, vals); ok {
		t.Fatal("full-rewrite delta should refuse (dense is smaller)")
	}
	if _, ok := EncodeDelta(base, vals[:50]); ok {
		t.Fatal("length mismatch must refuse")
	}
}

func TestApplyDeltaRejectsCorrupt(t *testing.T) {
	base := []float64{1, 2, 3}
	for _, bad := range [][]byte{
		{1, 2, 3}, // truncated header
		{9, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, // index out of range
		{0, 0, 0, 0, 2, 0, 0, 0, 1, 2, 3},                // truncated run
	} {
		if err := ApplyDelta(append([]float64(nil), base...), bad); err == nil {
			t.Fatalf("corrupt delta %v accepted", bad)
		}
	}
}

// BenchmarkJoin reassembles a 512 KiB tensor from its 16 default-size
// chunks: one allocation of the tensor's bytes per op, nothing else.
func BenchmarkJoin(b *testing.B) {
	vals := make([]float64, 16*DefaultSize)
	for i := range vals {
		vals[i] = float64(i) * 0.5
	}
	var datas [][]byte
	Split(vals, 0, func(_ string, data []byte) { datas = append(datas, data) })
	b.SetBytes(int64(8 * len(vals)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Join(datas, len(vals)); err != nil {
			b.Fatal(err)
		}
	}
}
