package graph

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"sommelier/internal/tensor"
)

func smallMLP(t testing.TB) *Model {
	t.Helper()
	b := NewBuilder("mlp", TaskClassification, tensor.Shape{8}, tensor.NewRNG(1))
	b.Dense(16)
	b.ReLU()
	b.Dense(4)
	b.Softmax()
	m, err := b.Build()
	if err != nil {
		t.Fatalf("building MLP: %v", err)
	}
	return m
}

func smallCNN(t testing.TB) *Model {
	t.Helper()
	b := NewBuilder("cnn", TaskClassification, tensor.Shape{3, 8, 8}, tensor.NewRNG(2))
	b.Conv(4, 3, 1, 1)
	b.ReLU()
	b.MaxPool(2, 2)
	b.Flatten()
	b.Dense(5)
	b.Softmax()
	m, err := b.Build()
	if err != nil {
		t.Fatalf("building CNN: %v", err)
	}
	return m
}

func TestInferShapeDense(t *testing.T) {
	out, err := InferShape(OpDense, Attrs{Units: 10}, []tensor.Shape{{4}})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(tensor.Shape{10}) {
		t.Fatalf("Dense shape = %v", out)
	}
	if _, err := InferShape(OpDense, Attrs{Units: 10}, []tensor.Shape{{2, 2}}); err == nil {
		t.Fatal("Dense should reject rank-2 input")
	}
	if _, err := InferShape(OpDense, Attrs{}, []tensor.Shape{{4}}); err == nil {
		t.Fatal("Dense should reject zero Units")
	}
}

func TestInferShapeConv(t *testing.T) {
	out, err := InferShape(OpConv2D, Attrs{OutChannels: 8, KernelH: 3, KernelW: 3, Stride: 1, Pad: 1},
		[]tensor.Shape{{3, 16, 16}})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(tensor.Shape{8, 16, 16}) {
		t.Fatalf("Conv shape = %v", out)
	}
	out, err = InferShape(OpConv2D, Attrs{OutChannels: 8, KernelH: 3, KernelW: 3, Stride: 2},
		[]tensor.Shape{{3, 17, 17}})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(tensor.Shape{8, 8, 8}) {
		t.Fatalf("strided Conv shape = %v", out)
	}
	if _, err := InferShape(OpConv2D, Attrs{OutChannels: 8, KernelH: 9, KernelW: 9},
		[]tensor.Shape{{3, 4, 4}}); err == nil {
		t.Fatal("Conv with kernel larger than input should fail")
	}
}

func TestInferShapePoolAndFlatten(t *testing.T) {
	out, err := InferShape(OpMaxPool, Attrs{KernelH: 2, KernelW: 2}, []tensor.Shape{{4, 8, 8}})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(tensor.Shape{4, 4, 4}) {
		t.Fatalf("MaxPool shape = %v", out)
	}
	out, err = InferShape(OpFlatten, Attrs{}, []tensor.Shape{{4, 4, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(tensor.Shape{64}) {
		t.Fatalf("Flatten shape = %v", out)
	}
}

func TestInferShapeMultiSource(t *testing.T) {
	out, err := InferShape(OpAdd, Attrs{}, []tensor.Shape{{8}, {8}})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(tensor.Shape{8}) {
		t.Fatalf("Add shape = %v", out)
	}
	if _, err := InferShape(OpAdd, Attrs{}, []tensor.Shape{{8}, {9}}); err == nil {
		t.Fatal("Add should reject mismatched shapes")
	}
	out, err = InferShape(OpConcat, Attrs{}, []tensor.Shape{{3, 4}, {5, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(tensor.Shape{8, 4}) {
		t.Fatalf("Concat shape = %v", out)
	}
	if _, err := InferShape(OpConcat, Attrs{}, []tensor.Shape{{3, 4}, {5, 6}}); err == nil {
		t.Fatal("Concat should reject mismatched trailing dims")
	}
}

func TestOpClass(t *testing.T) {
	cases := map[OpKind]OpClass{
		OpDense:    ClassLinear,
		OpConv2D:   ClassLinear,
		OpReLU:     ClassNonLinear,
		OpMaxPool:  ClassNonLinear,
		OpAdd:      ClassMultiSource,
		OpConcat:   ClassMultiSource,
		OpFlatten:  ClassStructural,
		OpIdentity: ClassStructural,
	}
	for op, want := range cases {
		if got := op.Class(); got != want {
			t.Errorf("Class(%s) = %v, want %v", op, got, want)
		}
	}
}

func TestBuilderMLPValidates(t *testing.T) {
	m := smallMLP(t)
	if m.ParamCount() != 16*8+16+4*16+4 {
		t.Fatalf("ParamCount = %d", m.ParamCount())
	}
	out, err := m.OutputShape()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(tensor.Shape{4}) {
		t.Fatalf("OutputShape = %v", out)
	}
}

func TestBuilderCNNValidates(t *testing.T) {
	m := smallCNN(t)
	out, err := m.OutputShape()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(tensor.Shape{5}) {
		t.Fatalf("OutputShape = %v", out)
	}
}

func TestBuilderResidualPreservesShape(t *testing.T) {
	b := NewBuilder("res", TaskClassification, tensor.Shape{8}, tensor.NewRNG(3))
	b.Dense(8)
	b.Residual(func(b *Builder) {
		b.Dense(8)
		b.ReLU()
		b.Dense(8)
	})
	b.Dense(3)
	b.Softmax()
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// The Add layer must have two inputs.
	var addLayer *Layer
	for _, l := range m.Layers {
		if l.Op == OpAdd {
			addLayer = l
		}
	}
	if addLayer == nil || len(addLayer.Inputs) != 2 {
		t.Fatalf("residual Add layer missing or malformed: %+v", addLayer)
	}
}

func TestBuilderErrorPropagates(t *testing.T) {
	b := NewBuilder("bad", TaskRegression, tensor.Shape{3, 8, 8}, nil)
	b.Dense(4) // Dense on rank-3 input is invalid
	if _, err := b.Build(); err == nil {
		t.Fatal("expected build error for Dense on rank-3 input")
	}
}

func TestTopoSortDetectsCycle(t *testing.T) {
	m := &Model{
		Name:       "cyclic",
		InputShape: tensor.Shape{2},
		Layers: []*Layer{
			{Name: "input", Op: OpInput},
			{Name: "a", Op: OpIdentity, Inputs: []string{"b"}},
			{Name: "b", Op: OpIdentity, Inputs: []string{"a"}},
		},
	}
	if _, err := m.TopoSort(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("TopoSort err = %v, want cycle error", err)
	}
}

func TestTopoSortUnknownInput(t *testing.T) {
	m := &Model{
		Name:       "dangling",
		InputShape: tensor.Shape{2},
		Layers: []*Layer{
			{Name: "input", Op: OpInput},
			{Name: "a", Op: OpIdentity, Inputs: []string{"ghost"}},
		},
	}
	if _, err := m.TopoSort(); err == nil {
		t.Fatal("expected unknown-input error")
	}
}

func TestValidateRejectsDuplicateNames(t *testing.T) {
	m := smallMLP(t)
	m.Layers = append(m.Layers, m.Layers[1].Clone())
	if err := m.Validate(); err == nil {
		t.Fatal("expected duplicate-name error")
	}
}

func TestValidateRejectsMissingParam(t *testing.T) {
	m := smallMLP(t)
	for _, l := range m.Layers {
		if l.Op == OpDense {
			delete(l.Params, "B")
			break
		}
	}
	if err := m.Validate(); err == nil {
		t.Fatal("expected missing-parameter error")
	}
}

func TestValidateRejectsLabelCountMismatch(t *testing.T) {
	m := smallMLP(t)
	m.OutputLabels = []string{"a", "b"} // output has 4 dims
	if err := m.Validate(); err == nil {
		t.Fatal("expected label-count error")
	}
}

func TestOutputLayerNameMultipleSinks(t *testing.T) {
	b := NewBuilder("fork", TaskRegression, tensor.Shape{4}, nil)
	d := b.Dense(4)
	b.Add(OpReLU, Attrs{}, d)
	b.Add(OpTanh, Attrs{}, d) // second sink
	if _, err := b.model.OutputLayerName(); err == nil {
		t.Fatal("expected multiple-sink error")
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := smallMLP(t)
	c := m.Clone()
	var dense *Layer
	for _, l := range c.Layers {
		if l.Op == OpDense {
			dense = l
			break
		}
	}
	dense.Params["W"].Data()[0] += 100
	var orig *Layer
	for _, l := range m.Layers {
		if l.Op == OpDense {
			orig = l
			break
		}
	}
	if orig.Params["W"].Data()[0] == dense.Params["W"].Data()[0] {
		t.Fatal("Clone shares parameter storage")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, m := range []*Model{smallMLP(t), smallCNN(t)} {
		var buf bytes.Buffer
		if err := Encode(&buf, m); err != nil {
			t.Fatalf("encode %s: %v", m.Name, err)
		}
		got, err := Decode(&buf)
		if err != nil {
			t.Fatalf("decode %s: %v", m.Name, err)
		}
		if !bytes.Equal(reencode(t, got), reencode(t, m)) {
			t.Fatalf("round trip changed %s", m.Name)
		}
		if got.Name != m.Name || got.Task != m.Task {
			t.Fatalf("round-trip metadata mismatch: %+v", got)
		}
	}
}

func TestDecodeRejectsCorruptParam(t *testing.T) {
	m := smallMLP(t)
	var buf bytes.Buffer
	if err := Encode(&buf, m); err != nil {
		t.Fatal(err)
	}
	s := strings.Replace(buf.String(), `"shape":[16,8]`, `"shape":[16,9]`, 1)
	if _, err := Decode(strings.NewReader(s)); err == nil {
		t.Fatal("expected decode error for corrupted shape")
	}
}

// somxV1 is a well-formed file in the retired SOMX v1 layout (tensors
// inlined as float arrays), which Decode no longer reads.
const somxV1 = `{"format":1,"name":"mlp","version":"1","task":"classification","input_shape":[2],` +
	`"layers":[{"name":"input","op":"Input","attrs":{}},` +
	`{"name":"d","op":"Dense","inputs":["input"],"attrs":{"units":1},` +
	`"params":{"B":{"shape":[1],"data":[0]},"W":{"shape":[2,1],"data":[0.5,-0.5]}}}]}`

func TestDecodeRejectsWrongFormat(t *testing.T) {
	for _, tc := range []struct{ body, want string }{
		{`{"format":99}`, "unsupported SOMX format 99"},
		{somxV1, "unsupported SOMX format 1"},
		{`{"format":0}`, "unsupported SOMX format 0"},
	} {
		_, err := Decode(strings.NewReader(tc.body))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Decode(%.20s…) = %v, want an error naming %q", tc.body, err, tc.want)
		}
	}
}

// Property: topological order always places a layer after its inputs.
func TestPropertyTopoOrderRespectsDeps(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		b := NewBuilder("p", TaskRegression, tensor.Shape{6}, rng)
		n := 2 + rng.Intn(6)
		for i := 0; i < n; i++ {
			switch rng.Intn(3) {
			case 0:
				b.Dense(4 + rng.Intn(8))
			case 1:
				b.ReLU()
			default:
				b.Residual(func(b *Builder) { b.Dense(b.ShapeOfLast()[0]) })
			}
		}
		m, err := b.Build()
		if err != nil {
			return false
		}
		order, err := m.TopoSort()
		if err != nil {
			return false
		}
		pos := make(map[string]int, len(order))
		for i, l := range order {
			pos[l.Name] = i
		}
		for _, l := range order {
			for _, in := range l.Inputs {
				if pos[in] >= pos[l.Name] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: a decoded model re-encodes to the bytes it was decoded from.
func TestPropertySerializationRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		b := NewBuilder("p", TaskClassification, tensor.Shape{5}, rng)
		b.Dense(3 + rng.Intn(5))
		b.Tanh()
		b.Dense(3)
		b.Softmax()
		m, err := b.Build()
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := Encode(&buf, m); err != nil {
			return false
		}
		want := bytes.Clone(buf.Bytes())
		got, err := Decode(&buf)
		if err != nil {
			return false
		}
		var again bytes.Buffer
		return Encode(&again, got) == nil && bytes.Equal(again.Bytes(), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
