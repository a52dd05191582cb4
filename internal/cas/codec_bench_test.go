package cas

import (
	"bytes"
	"testing"

	"sommelier/internal/graph"
	"sommelier/internal/zoo"
)

// pullForms are the encodings a hub_cluster pull carries: a series
// base, dense, and a sparse edit of it stored as deltas against it,
// both at the default chunk size — the models the sommperf hub_cluster
// workload publishes (width 96, depth 3).
func pullForms(b *testing.B) []struct {
	name string
	enc  *Encoded
} {
	b.Helper()
	base, err := zoo.DenseResidualNet(zoo.Config{Name: "ft00-base", Seed: 11, Width: 96, Depth: 3, Series: "ft00"})
	if err != nil {
		b.Fatal(err)
	}
	base.Version = "1"
	edit, err := zoo.SparseEdit(base, "ft00-v03", 8, 12)
	if err != nil {
		b.Fatal(err)
	}
	edit.Version = "1"
	encode := func(m *graph.Model, baseID string, against *graph.Model) *Encoded {
		enc, err := Encode(m, baseID, against, 0)
		if err != nil {
			b.Fatal(err)
		}
		return enc
	}
	return []struct {
		name string
		enc  *Encoded
	}{
		{"dense", encode(base, "", nil)},
		{"delta", encode(edit, "ft00-base@1", base)},
	}
}

// BenchmarkManifestCodec prices one manifest decode (validation
// included) and one encode of each pull form; SetBytes is the
// manifest's encoded size.
func BenchmarkManifestCodec(b *testing.B) {
	for _, form := range pullForms(b) {
		var buf bytes.Buffer
		if err := EncodeManifest(&buf, form.enc.Manifest); err != nil {
			b.Fatal(err)
		}
		data := buf.Bytes()
		b.Run("decode/"+form.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				man, err := DecodeManifest(bytes.NewReader(data))
				if err != nil {
					b.Fatal(err)
				}
				benchManifest = man
			}
		})
		b.Run("encode/"+form.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := EncodeManifest(&buf, form.enc.Manifest); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReadPack prices the client half of a pull: verify every
// record, decode the manifest, hydrate. B/op above the parameter bytes
// is what the pull adds to the copy.
func BenchmarkReadPack(b *testing.B) {
	for _, form := range pullForms(b) {
		pack, err := EncodePack(nil, form.enc.Manifest, encodedGet(form.enc))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(form.name, func(b *testing.B) {
			b.SetBytes(int64(len(pack)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, _, err := ReadPack(pack)
				if err != nil {
					b.Fatal(err)
				}
				benchModel = m
			}
		})
	}
}

// benchManifest and benchModel keep the benchmarks' results alive.
var (
	benchManifest *Manifest
	benchModel    *graph.Model
)
