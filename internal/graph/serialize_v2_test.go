package graph

import (
	"bytes"
	"encoding/json"
	"testing"

	"sommelier/internal/tensor"
)

func TestEncodeEmitsV2WithChunkTable(t *testing.T) {
	m := smallMLP(t)
	var buf bytes.Buffer
	if err := Encode(&buf, m); err != nil {
		t.Fatal(err)
	}
	var f struct {
		Format int               `json:"format"`
		Chunks map[string]string `json:"chunks"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	if f.Format != somxFormat {
		t.Fatalf("format = %d, want %d", f.Format, somxFormat)
	}
	if len(f.Chunks) == 0 {
		t.Fatal("v2 file has an empty chunk table")
	}
}

func TestEncodeV2DedupsIdenticalTensors(t *testing.T) {
	// Two layers whose weight tensors are bit-identical must share chunk
	// table entries.
	w := tensor.FromSlice(make([]float64, 64), 8, 8)
	for i, d := 0, w.Data(); i < len(d); i++ {
		d[i] = float64(i) * 0.125
	}
	m := &Model{
		Name: "dup", Version: "1", Task: TaskRegression, InputShape: tensor.Shape{8},
		Layers: []*Layer{
			{Name: "input", Op: OpInput},
			{Name: "a", Op: OpDense, Inputs: []string{"input"}, Attrs: Attrs{Units: 8},
				Params: map[string]*tensor.Tensor{"W": w.Clone(), "B": tensor.New(8)}},
			{Name: "b", Op: OpDense, Inputs: []string{"a"}, Attrs: Attrs{Units: 8},
				Params: map[string]*tensor.Tensor{"W": w.Clone(), "B": tensor.New(8)}},
		},
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, m); err != nil {
		t.Fatal(err)
	}
	var f somxFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	wa, wb := f.Layers[1].Params["W"], f.Layers[2].Params["W"]
	if len(wa.Chunks) == 0 || wa.Chunks[0] != wb.Chunks[0] {
		t.Fatal("identical tensors did not share a chunk address")
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != m.Fingerprint() {
		t.Fatal("deduped file round-trip changed the model")
	}
}

func TestDecodeV2RejectsTamperedChunk(t *testing.T) {
	m := smallMLP(t)
	var buf bytes.Buffer
	if err := Encode(&buf, m); err != nil {
		t.Fatal(err)
	}
	var f somxFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	for h := range f.Chunks {
		f.Chunks[h] = "AAAAAAAAAAA=" // valid base64, wrong content
		break
	}
	tampered, err := json.Marshal(&f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(bytes.NewReader(tampered)); err == nil {
		t.Fatal("tampered chunk table accepted")
	}
}

func TestDecodeV2RejectsDanglingChunkRef(t *testing.T) {
	m := smallMLP(t)
	var buf bytes.Buffer
	if err := Encode(&buf, m); err != nil {
		t.Fatal(err)
	}
	var f somxFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	f.Chunks = map[string]string{} // drop the table, keep the refs
	truncated, err := json.Marshal(&f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(bytes.NewReader(truncated)); err == nil {
		t.Fatal("dangling chunk references accepted")
	}
}
