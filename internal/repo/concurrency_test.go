package repo

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"sommelier/internal/cas"
	"sommelier/internal/zoo"
)

// Satellite of the CAS refactor: the repository must stay coherent when
// publishes, metadata reads, loads, and deletes of overlapping IDs
// race. Run with -race.

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
					case 1: // reader: anything but a damaged-model error is fine
						for i := 0; i < 20; i++ {
							if md, ok := r.Metadata(name + "@1"); ok && md.Name != name {
								t.Errorf("Metadata(%s@1) names %q", name, md.Name)
								return
							}
							_, err := r.Load(name + "@1")
							if err != nil && !errors.Is(err, ErrNotFound) {
								t.Errorf("load %s: %v", name, err)
								return
							}
						}
					default: // deleter
						for i := 0; i < 10; i++ {
							if err := r.Delete(name + "@1"); err != nil && !errors.Is(err, ErrNotFound) {
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
	if !bytes.Equal(somxOf(t, got), somxOf(t, variant)) {
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

	if err := r.Delete(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Delete of an ID missing from memory = %v, want ErrNotFound", err)
	}
	if _, err := os.Stat(filepath.Join(dir, safeID(id)+manifestSuffix)); !os.IsNotExist(err) {
		t.Fatal("Delete left the on-disk manifest for an ID missing from memory")
	}
}

// TestPublishManifestResuppliesAfterRacingDelete: PublishManifest puts
// nothing — every chunk is in the store when it starts — so the chunk
// bytes it read while hydrating are its only way back from a Delete
// that collects a shared chunk between the hydration and the commit.
// The test holds the repository lock so that the publish stops at its
// commit (its manifest file on disk shows it got there), deletes the
// model it shares chunks with there, and requires the publish to
// succeed and the model to load byte-identically. Run it with -race.
func TestPublishManifestResuppliesAfterRacingDelete(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	base, err := zoo.DenseResidualNet(zoo.Config{Name: "racebase", Seed: 4, Width: 32, Depth: 3})
	if err != nil {
		t.Fatal(err)
	}
	base.Version = "1"
	baseID, err := r.Publish(base)
	if err != nil {
		t.Fatal(err)
	}
	variant, err := zoo.Transfer(base, "racevar", 8, 100, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	variant.Version = "1"
	enc, err := cas.Encode(variant, "", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range r.MissingChunks(enc.Manifest) {
		if err := r.PutChunk(h, enc.Chunks[h]); err != nil {
			t.Fatal(err)
		}
	}

	r.mu.Lock()
	done := make(chan error, 1)
	go func() {
		_, err := r.PublishManifest(enc.Manifest)
		done <- err
	}()
	manifest := r.manifestPath(IDFor(variant))
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, err := os.Stat(manifest); err == nil {
			break
		}
		if time.Now().After(deadline) {
			r.mu.Unlock()
			t.Fatal("the publish never reached its commit")
		}
	}
	// The racing Delete of the base: the shared trunk chunks lose their
	// last reference and are collected before the variant claims them.
	r.chunks.Release(r.forgetLocked(baseID))
	if err := os.Remove(r.manifestPath(baseID)); err != nil {
		t.Error(err)
	}
	collected := len(r.MissingChunks(enc.Manifest))
	r.mu.Unlock()
	if collected == 0 {
		t.Fatal("the delete collected none of the variant's chunks; nothing was resupplied")
	}
	if err := <-done; err != nil {
		t.Fatalf("publish after a racing delete: %v", err)
	}
	got, err := r.Load(IDFor(variant))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(somxOf(t, got), somxOf(t, variant)) {
		t.Fatal("the resupplied model does not re-encode byte-identically")
	}
	cold, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, err = cold.Load(IDFor(variant)); err != nil || !bytes.Equal(somxOf(t, got), somxOf(t, variant)) {
		t.Fatalf("the resupplied model does not survive a re-open: %v", err)
	}
}
