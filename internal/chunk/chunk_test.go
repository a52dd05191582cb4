package chunk

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestBytesFloatsRoundTrip(t *testing.T) {
	vals := []float64{0, 1.5, -2.75, math.Pi, math.SmallestNonzeroFloat64, math.MaxFloat64, math.Inf(1),
		math.Copysign(0, -1), math.Inf(-1), math.Float64frombits(0x7ff0000000000001),
		math.Float64frombits(0xfff8000000000abc), math.Float64frombits(0x000fffffffffffff)}
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

// TestSplitViewMatchesBytes is the differential check on Split's view
// of a tensor's memory: every address and every emitted byte is what
// hashing the little-endian copy, Bytes, gives — for signed zeros,
// infinities, NaNs whose payloads differ, subnormals, an empty tensor
// and a short last chunk. The view is read-only and ends with its
// chunk, so an append to it cannot write into the next one.
func TestSplitViewMatchesBytes(t *testing.T) {
	special := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000abc),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff),
		math.MaxFloat64, -1.5, math.Pi,
	}
	long := make([]float64, 3*5+2) // three whole chunks of 5 and a short one
	for i := range long {
		long[i] = special[i%len(special)] * float64(1+i%3)
	}
	for _, tc := range []struct {
		name string
		vals []float64
		size int
	}{
		{"specials", special, 4},
		{"short-last", long, 5},
		{"one-chunk", special, 0},
		{"empty", []float64{}, 4},
		{"nil", nil, 4},
	} {
		var emitted [][]byte
		hashes := Split(tc.vals, tc.size, func(h string, data []byte) {
			emitted = append(emitted, data)
		})
		if len(emitted) != len(hashes) {
			t.Fatalf("%s: %d chunks emitted for %d addresses", tc.name, len(emitted), len(hashes))
		}
		size := tc.size
		if size <= 0 {
			size = DefaultSize
		}
		for i, h := range hashes {
			lo := min(i*size, len(tc.vals))
			hi := min(lo+size, len(tc.vals))
			want := Bytes(tc.vals[lo:hi])
			if h != Hash(want) {
				t.Errorf("%s: chunk %d addressed %s, want %s", tc.name, i, h, Hash(want))
			}
			if !bytes.Equal(emitted[i], want) {
				t.Errorf("%s: chunk %d emitted bytes differ from Bytes", tc.name, i)
			}
			if cap(emitted[i]) != len(want) {
				t.Errorf("%s: chunk %d view has capacity %d past its %d bytes", tc.name, i, cap(emitted[i]), len(want))
			}
		}
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
