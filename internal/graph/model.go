package graph

import (
	"fmt"
	"sort"

	"sommelier/internal/tensor"
)

// TaskKind classifies what a model's output means (§4.1: classification
// semantics live in the argmax dimension, regression in the whole vector).
type TaskKind string

const (
	TaskClassification TaskKind = "classification"
	TaskRegression     TaskKind = "regression"
)

// Layer is one node of the model DAG: an operator plus its attributes and
// parameter tensors (the grey and blue boxes of Figure 2).
type Layer struct {
	Name   string
	Op     OpKind
	Inputs []string
	Attrs  Attrs
	Params map[string]*tensor.Tensor
}

// Param returns the named parameter tensor or nil.
func (l *Layer) Param(name string) *tensor.Tensor {
	if l.Params == nil {
		return nil
	}
	return l.Params[name]
}

// ParamNames returns the layer's parameter names in sorted order. Any
// code that consumes randomness per parameter must iterate in this order
// to stay deterministic across runs.
func (l *Layer) ParamNames() []string {
	names := make([]string, 0, len(l.Params))
	for n := range l.Params {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ParamCount returns the number of scalar parameters in the layer.
func (l *Layer) ParamCount() int64 {
	var n int64
	for _, p := range l.Params {
		n += int64(p.NumElements())
	}
	return n
}

// Clone returns a deep copy of the layer.
func (l *Layer) Clone() *Layer {
	c := &Layer{Name: l.Name, Op: l.Op, Attrs: l.Attrs}
	c.Inputs = append([]string(nil), l.Inputs...)
	if l.Params != nil {
		c.Params = make(map[string]*tensor.Tensor, len(l.Params))
		for k, v := range l.Params {
			c.Params[k] = v.Clone()
		}
	}
	return c
}

// Model is a complete DNN: a named DAG of layers with an input
// specification, task kind, and optional output syntax labels.
type Model struct {
	Name    string
	Version string
	Task    TaskKind
	// InputShape is the per-sample input shape (no batch dimension).
	InputShape tensor.Shape
	// Preprocessor names a registered input preprocessor; when both
	// models in a comparison declare one, the strict input-shape check
	// of §4.1 is skipped in favor of the preprocessor identity.
	Preprocessor string
	// OutputLabels gives the syntax of each classification output
	// dimension (e.g. index 3 → "cat"); empty for regression.
	OutputLabels []string
	Layers       []*Layer
	Metadata     map[string]string
}

// Layer returns the named layer or nil.
func (m *Model) Layer(name string) *Layer {
	for _, l := range m.Layers {
		if l.Name == name {
			return l
		}
	}
	return nil
}

// InputLayer returns the model's Input layer, or nil when absent.
func (m *Model) InputLayer() *Layer {
	for _, l := range m.Layers {
		if l.Op == OpInput {
			return l
		}
	}
	return nil
}

// ParamCount returns the number of scalar parameters across all layers.
func (m *Model) ParamCount() int64 {
	var n int64
	for _, l := range m.Layers {
		n += l.ParamCount()
	}
	return n
}

// Clone returns a deep copy of the model, including parameter tensors.
func (m *Model) Clone() *Model {
	c := &Model{
		Name:         m.Name,
		Version:      m.Version,
		Task:         m.Task,
		InputShape:   m.InputShape.Clone(),
		Preprocessor: m.Preprocessor,
	}
	c.OutputLabels = append([]string(nil), m.OutputLabels...)
	c.Layers = make([]*Layer, len(m.Layers))
	for i, l := range m.Layers {
		c.Layers[i] = l.Clone()
	}
	if m.Metadata != nil {
		c.Metadata = make(map[string]string, len(m.Metadata))
		for k, v := range m.Metadata {
			c.Metadata[k] = v
		}
	}
	return c
}

// TopoSort returns the layers in a dependency-respecting order. It returns
// an error if the graph has a cycle or references an unknown layer.
func (m *Model) TopoSort() ([]*Layer, error) {
	order, _, err := m.topoSort()
	return order, err
}

// topoSort is TopoSort that also returns each layer's position in the
// order, by name: the depth-first search's visit state, in which every
// finished layer holds its position.
func (m *Model) topoSort() ([]*Layer, map[string]int, error) {
	byName := make(map[string]*Layer, len(m.Layers))
	for _, l := range m.Layers {
		if _, dup := byName[l.Name]; dup {
			return nil, nil, fmt.Errorf("graph: duplicate layer name %q", l.Name)
		}
		byName[l.Name] = l
	}
	const onPath = -1 // entered, not finished: seeing it again is a cycle
	pos := make(map[string]int, len(m.Layers))
	order := make([]*Layer, 0, len(m.Layers))
	var visit func(l *Layer) error
	visit = func(l *Layer) error {
		if p, seen := pos[l.Name]; seen {
			if p == onPath {
				return fmt.Errorf("graph: cycle through layer %q", l.Name)
			}
			return nil
		}
		pos[l.Name] = onPath
		for _, in := range l.Inputs {
			dep, ok := byName[in]
			if !ok {
				return fmt.Errorf("graph: layer %q references unknown input %q", l.Name, in)
			}
			if err := visit(dep); err != nil {
				return err
			}
		}
		pos[l.Name] = len(order)
		order = append(order, l)
		return nil
	}
	// Visit in declaration order for a deterministic result.
	for _, l := range m.Layers {
		if err := visit(l); err != nil {
			return nil, nil, err
		}
	}
	return order, pos, nil
}

// ShapedOrder is shape inference over one topological order: Layers[i]
// outputs Shapes[i], and Pos maps each layer's name to its position.
type ShapedOrder struct {
	Layers []*Layer
	Shapes []tensor.Shape
	Pos    map[string]int
}

// InferShapes runs shape inference over the whole model in one
// topological order, keeping every layer's output shape by position —
// the form a pass that walks the same order again (resource profiling)
// reads without a second sort.
func (m *Model) InferShapes() (ShapedOrder, error) {
	order, pos, err := m.topoSort()
	if err != nil {
		return ShapedOrder{}, err
	}
	so := ShapedOrder{Layers: order, Shapes: make([]tensor.Shape, len(order)), Pos: pos}
	var in []tensor.Shape
	for i, l := range order {
		if l.Op == OpInput {
			if !m.InputShape.Valid() {
				return ShapedOrder{}, fmt.Errorf("graph: model %q has invalid input shape %v", m.Name, m.InputShape)
			}
			so.Shapes[i] = m.InputShape.Clone()
			continue
		}
		in = in[:0]
		for _, name := range l.Inputs {
			in = append(in, so.Shapes[so.Pos[name]])
		}
		if so.Shapes[i], err = InferShape(l.Op, l.Attrs, in); err != nil {
			return ShapedOrder{}, fmt.Errorf("graph: layer %q: %w", l.Name, err)
		}
	}
	return so, nil
}

// ShapeOf runs shape inference over the whole model and returns the output
// shape of every layer. It is the static type-check that fronts the
// whole-model equivalence pipeline.
func (m *Model) ShapeOf() (map[string]tensor.Shape, error) {
	so, err := m.InferShapes()
	if err != nil {
		return nil, err
	}
	shapes := make(map[string]tensor.Shape, len(so.Layers))
	for i, l := range so.Layers {
		shapes[l.Name] = so.Shapes[i]
	}
	return shapes, nil
}

// OutputLayerName returns the unique sink layer (consumed by no other
// layer). Models with several sinks return an error; Sommelier's pipeline
// analyzes single-output models, as does the paper's.
func (m *Model) OutputLayerName() (string, error) {
	consumed := make(map[string]bool)
	for _, l := range m.Layers {
		for _, in := range l.Inputs {
			consumed[in] = true
		}
	}
	var sinks []string
	for _, l := range m.Layers {
		if !consumed[l.Name] {
			sinks = append(sinks, l.Name)
		}
	}
	switch len(sinks) {
	case 1:
		return sinks[0], nil
	case 0:
		return "", fmt.Errorf("graph: model %q has no output layer (cycle?)", m.Name)
	default:
		sort.Strings(sinks)
		return "", fmt.Errorf("graph: model %q has %d output layers %v", m.Name, len(sinks), sinks)
	}
}

// OutputShape returns the shape of the model's output layer.
func (m *Model) OutputShape() (tensor.Shape, error) {
	shapes, err := m.ShapeOf()
	if err != nil {
		return nil, err
	}
	out, err := m.OutputLayerName()
	if err != nil {
		return nil, err
	}
	return shapes[out], nil
}

// Validate checks structural well-formedness: exactly one Input layer,
// valid operator kinds, an acyclic graph, successful shape inference, a
// single output, and parameter tensors matching their specs.
func (m *Model) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("graph: model has no name")
	}
	inputs := 0
	for _, l := range m.Layers {
		if !l.Op.Valid() {
			return fmt.Errorf("graph: layer %q has unknown op %q", l.Name, l.Op)
		}
		if l.Op == OpInput {
			inputs++
			if len(l.Inputs) != 0 {
				return fmt.Errorf("graph: input layer %q must have no inputs", l.Name)
			}
		} else if len(l.Inputs) == 0 {
			return fmt.Errorf("graph: layer %q has no inputs", l.Name)
		}
	}
	if inputs != 1 {
		return fmt.Errorf("graph: model %q has %d input layers, want 1", m.Name, inputs)
	}
	shapes, err := m.ShapeOf()
	if err != nil {
		return err
	}
	if _, err := m.OutputLayerName(); err != nil {
		return err
	}
	for _, l := range m.Layers {
		in := make([]tensor.Shape, len(l.Inputs))
		for i, name := range l.Inputs {
			in[i] = shapes[name]
		}
		specs, err := ParamSpecs(l.Op, l.Attrs, in)
		if err != nil {
			return fmt.Errorf("graph: layer %q: %w", l.Name, err)
		}
		for _, spec := range specs {
			p := l.Param(spec.Name)
			if p == nil {
				return fmt.Errorf("graph: layer %q missing parameter %q", l.Name, spec.Name)
			}
			if !p.Shape().Equal(spec.Shape) {
				return fmt.Errorf("graph: layer %q parameter %q has shape %v, want %v",
					l.Name, spec.Name, p.Shape(), spec.Shape)
			}
		}
	}
	if m.Task == TaskClassification && len(m.OutputLabels) > 0 {
		out, err := m.OutputShape()
		if err != nil {
			return err
		}
		if out.NumElements() != len(m.OutputLabels) {
			return fmt.Errorf("graph: model %q has %d output labels for output %v",
				m.Name, len(m.OutputLabels), out)
		}
	}
	return nil
}
