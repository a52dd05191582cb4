package repo

import (
	"sync"
	"testing"

	"sommelier/internal/graph"
	"sommelier/internal/tensor"
)

func model(t testing.TB, name, version string, seed uint64) *graph.Model {
	t.Helper()
	b := graph.NewBuilder(name, graph.TaskClassification, tensor.Shape{4}, tensor.NewRNG(seed))
	b.Dense(6)
	b.ReLU()
	b.Dense(3)
	b.Softmax()
	b.Meta("series", "test-series")
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m.Version = version
	return m
}

func TestInMemoryPublishLoad(t *testing.T) {
	r := NewInMemory()
	m := model(t, "alpha", "1", 1)
	id, err := r.Publish(m)
	if err != nil {
		t.Fatal(err)
	}
	if id != "alpha@1" {
		t.Fatalf("id = %q", id)
	}
	got, err := r.Load(id)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != m.Fingerprint() {
		t.Fatal("loaded model differs")
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d", r.Len())
	}
}

func TestPublishRejectsInvalid(t *testing.T) {
	r := NewInMemory()
	bad := &graph.Model{Name: "bad", InputShape: tensor.Shape{2}}
	if _, err := r.Publish(bad); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestLoadMissing(t *testing.T) {
	r := NewInMemory()
	if _, err := r.Load("ghost@1"); err == nil {
		t.Fatal("expected not-found error")
	}
}

func TestDeleteAndList(t *testing.T) {
	r := NewInMemory()
	idA, _ := r.Publish(model(t, "a", "1", 1))
	idB, _ := r.Publish(model(t, "b", "1", 2))
	list := r.List()
	if len(list) != 2 || list[0].ID != idA || list[1].ID != idB {
		t.Fatalf("List = %+v", list)
	}
	if list[0].Series != "test-series" {
		t.Fatalf("series metadata lost: %+v", list[0])
	}
	if err := r.Delete(idA); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete("ghost"); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatalf("Len after delete = %d", r.Len())
	}
	if _, err := r.Load(idA); err == nil {
		t.Fatal("deleted model still loads")
	}
}

func TestPublishOverwritesVersion(t *testing.T) {
	r := NewInMemory()
	m1 := model(t, "m", "1", 1)
	m2 := model(t, "m", "1", 99)
	r.Publish(m1)
	r.Publish(m2)
	if r.Len() != 1 {
		t.Fatalf("Len = %d after overwrite", r.Len())
	}
	got, _ := r.Load("m@1")
	if got.Fingerprint() != m2.Fingerprint() {
		t.Fatal("overwrite did not take effect")
	}
}

func TestDirectoryBackedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := model(t, "disk", "3", 5)
	id, err := r.Publish(m)
	if err != nil {
		t.Fatal(err)
	}

	// Reopen: the model must be discovered from disk.
	r2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Len() != 1 {
		t.Fatalf("reopened Len = %d", r2.Len())
	}
	got, err := r2.Load(id)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != m.Fingerprint() {
		t.Fatal("disk round-trip changed the model")
	}
	md, ok := r2.Metadata(id)
	if !ok || md.Name != "disk" {
		t.Fatalf("metadata = %+v", md)
	}

	if err := r2.Delete(id); err != nil {
		t.Fatal(err)
	}
	r3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Len() != 0 {
		t.Fatal("delete did not remove file")
	}
}

func TestConcurrentAccess(t *testing.T) {
	r := NewInMemory()
	id, _ := r.Publish(model(t, "c", "1", 7))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if _, err := r.Load(id); err != nil {
					t.Error(err)
					return
				}
				r.List()
			}
		}(i)
	}
	wg.Wait()
}
