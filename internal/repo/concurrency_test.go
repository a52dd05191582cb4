package repo

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"sommelier/internal/zoo"
)

// Satellite of the CAS refactor: the repository must stay coherent when
// publishes, loads, and deletes of overlapping IDs race. Run with -race.

func TestParallelPublishLoadDeleteOverlapping(t *testing.T) {
	for _, mode := range []string{"memory", "dir"} {
		t.Run(mode, func(t *testing.T) {
			var r *Repository
			var err error
			if mode == "memory" {
				r = NewInMemory()
			} else if r, err = Open(t.TempDir()); err != nil {
				t.Fatal(err)
			}
			const ids = 4
			var wg sync.WaitGroup
			for g := 0; g < 3*ids; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					name := fmt.Sprintf("m%d", g%ids)
					switch g % 3 {
					case 0: // publisher: repeatedly overwrite the same slot
						for i := 0; i < 10; i++ {
							m := model(t, name, "1", uint64(g*100+i))
							if _, err := r.Publish(m); err != nil {
								t.Errorf("publish %s: %v", name, err)
								return
							}
						}
					case 1: // loader: anything but a damaged-model error is fine
						for i := 0; i < 20; i++ {
							_, err := r.Load(name + "@1")
							if err != nil && !errors.Is(err, ErrNotFound) {
								t.Errorf("load %s: %v", name, err)
								return
							}
						}
					default: // deleter
						for i := 0; i < 10; i++ {
							if err := r.Delete(name + "@1"); err != nil {
								t.Errorf("delete %s: %v", name, err)
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()

			// Whatever survived must still hydrate, and the chunk store
			// must hold exactly the survivors' references.
			for _, md := range r.List() {
				if _, err := r.Load(md.ID); err != nil {
					t.Errorf("survivor %s does not load: %v", md.ID, err)
				}
			}
			for _, md := range r.List() {
				if err := r.Delete(md.ID); err != nil {
					t.Fatal(err)
				}
			}
			if got := r.CASStats().Chunks; got != 0 {
				t.Fatalf("chunks leaked after deleting every model: %d", got)
			}
		})
	}
}

func TestPublishDedupsFineTunedVariant(t *testing.T) {
	r := NewInMemory()
	base, err := zoo.DenseResidualNet(zoo.Config{Name: "trunkbase", Seed: 1, Width: 32, Depth: 3})
	if err != nil {
		t.Fatal(err)
	}
	base.Version = "1"
	if _, err := r.Publish(base); err != nil {
		t.Fatal(err)
	}
	baseline := r.CASStats()

	variant, err := zoo.Transfer(base, "tuned", 8, 100, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	variant.Version = "1"
	id, err := r.Publish(variant)
	if err != nil {
		t.Fatal(err)
	}
	after := r.CASStats()
	added := after.Bytes - baseline.Bytes
	if added*4 >= baseline.Bytes {
		t.Fatalf("frozen-trunk variant added %d bytes on a %d-byte base; dedup missing", added, baseline.Bytes)
	}
	man, ok := r.Manifest(id)
	if !ok || man.BaseID != "trunkbase@1" {
		t.Fatalf("variant manifest base = %q, want trunkbase@1", man.BaseID)
	}

	// Deleting the base must not damage the variant: refs are per-chunk.
	if err := r.Delete("trunkbase@1"); err != nil {
		t.Fatal(err)
	}
	got, err := r.Load(id)
	if err != nil {
		t.Fatalf("variant damaged by base deletion: %v", err)
	}
	if got.Fingerprint() != variant.Fingerprint() {
		t.Fatal("variant content changed after base deletion")
	}
}

func TestDeleteReclaimsExclusiveChunksOnly(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	base, err := zoo.DenseResidualNet(zoo.Config{Name: "shared", Seed: 3, Width: 32, Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	base.Version = "1"
	variant, err := zoo.Transfer(base, "leaf", 8, 100, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	variant.Version = "1"
	if _, err := r.Publish(base); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Publish(variant); err != nil {
		t.Fatal(err)
	}
	withBoth := r.CASStats().Chunks
	if err := r.Delete("leaf@1"); err != nil {
		t.Fatal(err)
	}
	afterLeaf := r.CASStats().Chunks
	if afterLeaf >= withBoth {
		t.Fatal("deleting the variant reclaimed nothing")
	}
	if _, err := r.Load("shared@1"); err != nil {
		t.Fatalf("base damaged by variant deletion: %v", err)
	}
	if err := r.Delete("shared@1"); err != nil {
		t.Fatal(err)
	}
	if got := r.CASStats().Chunks; got != 0 {
		t.Fatalf("chunks left after deleting everything: %d", got)
	}
}

func TestDeleteRemovesDiskFileWhenMemoryEntryMissing(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A manifest written by some other process: present on disk, absent
	// from this handle's in-memory record.
	other, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id, err := other.Publish(model(t, "stray", "1", 9))
	if err != nil {
		t.Fatal(err)
	}
	man, _ := other.Manifest(id)
	if err := writeManifestFile(filepath.Join(dir, safeID(id)+manifestSuffix), man); err != nil {
		t.Fatal(err)
	}

	if err := r.Delete(id); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, safeID(id)+manifestSuffix)); !os.IsNotExist(err) {
		t.Fatal("Delete left the on-disk manifest for an ID missing from memory")
	}
}
