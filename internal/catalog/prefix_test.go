package catalog

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"sommelier/internal/cas"
	"sommelier/internal/graph"
	"sommelier/internal/index"
	"sommelier/internal/nn"
	"sommelier/internal/tensor"
	"sommelier/internal/zoo"
)

// identified is m's entry with the identity of m's dense encoding, the
// identity a register of m into an empty repository reports.
func identified(t testing.TB, id string, m *graph.Model) index.Entry {
	t.Helper()
	enc, err := cas.Encode(m, "", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return index.Entry{ID: id, Model: m, Identity: enc.Manifest.Identity()}
}

// seriesEntries is a fine-tuned series with identities: a base, then
// variants cycling through a frozen-trunk transfer (only the head
// differs), a transfer tuning the last trunk linear layer, a sparse
// edit of every weight matrix and a perturbation of every tensor.
// trunk counts the base's linear layers before its head.
func seriesEntries(t testing.TB, base *graph.Model, trunk, n int, seed uint64) []index.Entry {
	t.Helper()
	entries := []index.Entry{identified(t, base.Name+"@v1", base)}
	for i := 1; i < n; i++ {
		name := fmt.Sprintf("%s-v%02d", base.Name, i)
		var v *graph.Model
		var err error
		switch i % 4 {
		case 1:
			v, err = zoo.Transfer(base, name, 8, trunk, 0, seed+uint64(i))
		case 2:
			v, err = zoo.Transfer(base, name, 8, trunk-1, 0.02, seed+uint64(i))
		case 3:
			v, err = zoo.SparseEdit(base, name, 4, seed+uint64(i))
		default:
			v = zoo.Perturb(base, name, 0.01, seed+uint64(i))
		}
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, identified(t, name+"@v1", v))
	}
	return entries
}

// regressionSeries is a label-free regression base and variants that
// retrain only its last layer, so their sweeps take the ForwardBatch
// path and still share the trunk.
func regressionSeries(t testing.TB, name string, n int, seed uint64) []index.Entry {
	t.Helper()
	b := graph.NewBuilder(name, graph.TaskRegression, tensor.Shape{6}, tensor.NewRNG(seed))
	b.Dense(10)
	b.Tanh()
	b.Dense(10)
	b.ReLU()
	b.Dense(4)
	base, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	entries := []index.Entry{identified(t, name+"@v1", base)}
	order, _ := base.TopoSort()
	head := order[len(order)-1].Name
	for i := 1; i < n; i++ {
		v := base.Clone()
		v.Name = fmt.Sprintf("%s-v%d", name, i)
		w := v.Layer(head).Param("W")
		tensor.NewRNG(seed + uint64(i)).FillXavier(w)
		entries = append(entries, identified(t, v.Name+"@v1", v))
	}
	return entries
}

// fineTunedEntries is the differential population: residual, conv and
// regression series whose variants share trunks with their bases, so
// sweeps resume from cut activations and bounds reuse cushions.
func fineTunedEntries(t testing.TB) []index.Entry {
	t.Helper()
	res, err := zoo.DenseResidualNet(zoo.Config{Name: "ft-res", Seed: 31, Width: 12, Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	conv, err := zoo.ConvNet(zoo.Config{Name: "ft-conv", Seed: 32, InDim: 8, Width: 12, Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	entries := seriesEntries(t, res, 1+2*2, 9, 300)
	entries = append(entries, seriesEntries(t, conv, 3, 6, 400)...)
	return append(entries, regressionSeries(t, "ft-reg", 4, 500)...)
}

// TestMemoCountersReadZeroFromConstruction: a fresh catalog's snapshot
// carries every memo counter and gauge, at 0, and a population without
// identity leaves them there.
func TestMemoCountersReadZeroFromConstruction(t *testing.T) {
	c, o := observedCatalog(3, 2)
	check := func(when string) {
		snap := o.Snapshot()
		for _, name := range []string{"catalog_prefix_hits_total", "catalog_prefix_misses_total",
			"catalog_prefix_layers_skipped_total", "catalog_sigma_hits_total"} {
			if v, ok := snap.Counters[name]; !ok || v != 0 {
				t.Fatalf("%s: %s = %d (present %v), want 0", when, name, v, ok)
			}
		}
		if v, ok := snap.Gauges["catalog_prefix_cache_bytes"]; !ok || v != 0 {
			t.Fatalf("%s: catalog_prefix_cache_bytes = %d (present %v), want 0", when, v, ok)
		}
	}
	check("construction")
	if _, err := c.IndexBatch(context.Background(), testEntries(t, "zero", 6)); err != nil {
		t.Fatal(err)
	}
	check("after models without identity")
}

// cutKeys returns m's prefix keys on probe set probes.
func cutKeys(t *testing.T, m *graph.Model, ident cas.Identity, probes string) ([]int, []prefixKey) {
	t.Helper()
	exec, err := nn.NewExecutor(m)
	if err != nil {
		t.Fatal(err)
	}
	cuts := exec.Cuts()
	return cuts, prefixKeys(exec, ident, probes, cuts)
}

// TestPrefixKeysMiss: the prefix key covers everything a cut's
// activations depend on. The same tensors under another preprocessor,
// input shape or probe set share no key; a rewired layer or a changed
// tensor changes the key of every cut from that layer on and of none
// before it; a layer the identity does not cover ends the keys.
func TestPrefixKeysMiss(t *testing.T) {
	base := testModel(t, "keys", 5).Model
	ident := identified(t, "keys@v1", base).Identity
	cuts, keys := cutKeys(t, base, ident, "p")
	if len(keys) != len(cuts) || len(keys) < 3 {
		t.Fatalf("%d keys for %d cuts", len(keys), len(cuts))
	}
	if _, again := cutKeys(t, base.Clone(), ident, "p"); !reflect.DeepEqual(again, keys) {
		t.Fatal("equal models on one probe set have different keys")
	}
	disjoint := func(what string, other []prefixKey) {
		t.Helper()
		for _, a := range other {
			for _, b := range keys {
				if a == b {
					t.Fatalf("%s shares a prefix key with the base", what)
				}
			}
		}
	}
	_, probes := cutKeys(t, base, ident, "q")
	disjoint("another probe set", probes)
	nn.RegisterPreprocessor("catalog-test-same", func(raw *tensor.Tensor) *tensor.Tensor { return raw })
	pre := base.Clone()
	pre.Preprocessor = "catalog-test-same"
	_, preKeys := cutKeys(t, pre, ident, "p")
	disjoint("another preprocessor", preKeys)

	// The same tensors behind a Flatten, fed {16} or {2, 8}.
	flat := func(shape tensor.Shape) (*graph.Model, cas.Identity) {
		b := graph.NewBuilder("flat", graph.TaskClassification, shape, tensor.NewRNG(9))
		b.Flatten()
		b.Dense(8)
		b.ReLU()
		b.Dense(4)
		b.Softmax()
		m, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return m, identified(t, "flat@v1", m).Identity
	}
	wide, wideIdent := flat(tensor.Shape{16})
	tall, tallIdent := flat(tensor.Shape{2, 8})
	if !reflect.DeepEqual(wideIdent, tallIdent) {
		t.Fatal("the two input shapes were built with different tensors")
	}
	_, wideKeys := cutKeys(t, wide, wideIdent, "p")
	_, tallKeys := cutKeys(t, tall, tallIdent, "p")
	for _, a := range wideKeys {
		for _, b := range tallKeys {
			if a == b {
				t.Fatal("another input shape shares a prefix key")
			}
		}
	}

	// from is the position of the first layer that differs from the base.
	prefixOnly := func(what string, from int, other []int, otherKeys []prefixKey) {
		t.Helper()
		if !reflect.DeepEqual(other, cuts) {
			t.Fatalf("%s: cuts %v, base's %v", what, other, cuts)
		}
		for j, pos := range cuts {
			if j >= len(otherKeys) {
				break
			}
			if same := otherKeys[j] == keys[j]; same != (pos < from) {
				t.Fatalf("%s: cut %d (layer %d of the change at %d) shares key: %v", what, j, pos, from, same)
			}
		}
	}
	exec, _ := nn.NewExecutor(base)
	order := exec.Layers()
	var add, head int // the residual Add, the last Dense
	for i, l := range order {
		switch l.Op {
		case graph.OpAdd:
			add = i
		case graph.OpDense:
			head = i
		}
	}
	// Rewired: the Add reads its inputs the other way round.
	wired := base.Clone()
	l := wired.Layer(order[add].Name)
	l.Inputs[0], l.Inputs[1] = l.Inputs[1], l.Inputs[0]
	wc, wk := cutKeys(t, wired, ident, "p")
	prefixOnly("rewired Add", add, wc, wk)

	// Another head: a different tensor identity at the head.
	other := base.Clone()
	tensor.NewRNG(77).FillXavier(other.Layer(order[head].Name).Param("W"))
	oIdent := identified(t, "keys@v1", other).Identity
	oc, ok := cutKeys(t, other, oIdent, "p")
	prefixOnly("retrained head", head, oc, ok)

	// An identity that skips the head's tensors covers the cuts before it.
	partial := make(cas.Identity, len(ident))
	for name, ids := range ident {
		if name != order[head].Name {
			partial[name] = ids
		}
	}
	_, pk := cutKeys(t, base, partial, "p")
	for j, pos := range cuts {
		if (j < len(pk)) != (pos < head) {
			t.Fatalf("identity without the head: %d keys, cut %d at layer %d, head at %d", len(pk), j, pos, head)
		}
	}
	if _, none := cutKeys(t, base, nil, "p"); none != nil {
		t.Fatal("a model without identity has prefix keys")
	}
}

// TestAttrsKeyCoversEveryField: appendAttrs writes every field of
// graph.Attrs, so a field added there cannot leave prefix keys blind
// to it. Setting any one field changes the bytes.
func TestAttrsKeyCoversEveryField(t *testing.T) {
	typ := reflect.TypeOf(graph.Attrs{})
	zero := appendAttrs(nil, graph.Attrs{})
	for i := 0; i < typ.NumField(); i++ {
		var a graph.Attrs
		f := reflect.ValueOf(&a).Elem().Field(i)
		switch f.Kind() {
		case reflect.Int:
			f.SetInt(3)
		case reflect.Float64:
			f.SetFloat(0.5)
		default:
			t.Fatalf("graph.Attrs.%s is a %s, which appendAttrs does not write", typ.Field(i).Name, f.Kind())
		}
		if string(appendAttrs(nil, a)) == string(zero) {
			t.Fatalf("graph.Attrs.%s is not in the prefix key", typ.Field(i).Name)
		}
	}
}
