package repo

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// Failure injection: a repository must degrade loudly, not silently,
// when its on-disk state is damaged — and one damaged file must never
// take the whole repository down.

func TestOpenLeavesUnknownFilesAlone(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "foo@1.somx")
	body := []byte("{not json")
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatalf("an unknown file must not fail the open: %v", err)
	}
	if r.Len() != 0 {
		t.Fatalf("unknown file counted as a model: %d", r.Len())
	}
	if got := r.SweptFiles(); len(got) != 0 {
		t.Fatalf("SweptFiles = %v, want none: the file is not the repository's", got)
	}
	untouched := func(when string) {
		t.Helper()
		got, err := os.ReadFile(path)
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("after %s: file = %q, %v; want it byte-for-byte intact", when, got, err)
		}
	}
	untouched("Open")
	if err := r.Delete("foo@1"); err != nil {
		t.Fatal(err)
	}
	untouched(`Delete("foo@1")`)
}

func TestOpenSweepsTornManifest(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keepID, err := r.Publish(model(t, "keep", "1", 2))
	if err != nil {
		t.Fatal(err)
	}
	id, err := r.Publish(model(t, "torn", "1", 3))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, id+manifestSuffix)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(dir)
	if err != nil {
		t.Fatalf("torn manifest must not fail the open: %v", err)
	}
	if _, err := r2.Load(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Load of swept model = %v, want ErrNotFound", err)
	}
	if _, err := r2.Load(keepID); err != nil {
		t.Fatalf("healthy sibling model lost: %v", err)
	}
	if len(r2.SweptFiles()) == 0 {
		t.Fatal("sweep left no record")
	}
}

func TestOpenSweepsManifestWithMissingChunks(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	id, err := r.Publish(model(t, "gone", "1", 4))
	if err != nil {
		t.Fatal(err)
	}
	man, ok := r.Manifest(id)
	if !ok {
		t.Fatal("manifest missing after publish")
	}
	// Delete one chunk file behind the repository's back.
	h := man.ChunkRefs()[0]
	if err := os.Remove(filepath.Join(dir, "chunks", h[:2], h)); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(dir)
	if err != nil {
		t.Fatalf("missing chunk must not fail the open: %v", err)
	}
	if _, err := r2.Load(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Load = %v, want ErrNotFound after sweep", err)
	}
}

func TestOpenIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "subdir"), 0o755); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Fatalf("foreign files counted as models: %d", r.Len())
	}
	if got := r.SweptFiles(); len(got) != 0 {
		t.Fatalf("foreign files swept: %v", got)
	}
}

func TestLoadAfterExternalDeletion(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	id, err := r.Publish(model(t, "vanish", "1", 5))
	if err != nil {
		t.Fatal(err)
	}
	// Simulate an operator deleting the manifest behind the repository's
	// back, then dropping the cache via a fresh handle.
	if err := os.Remove(filepath.Join(dir, id+manifestSuffix)); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Load(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Load = %v, want not-found after external deletion", err)
	}
}

func TestCorruptChunkIsDamagedNotNotFound(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	id, err := r.Publish(model(t, "rot", "1", 6))
	if err != nil {
		t.Fatal(err)
	}
	man, _ := r.Manifest(id)
	h := man.ChunkRefs()[0]
	if err := os.WriteFile(filepath.Join(dir, "chunks", h[:2], h), []byte("bitrot"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Fresh handle so the hydration cache is cold; the chunk table knows
	// the chunk, but its bytes no longer match the address.
	r2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, err = r2.Load(id)
	if err == nil {
		t.Fatal("corrupt chunk loaded successfully")
	}
	if errors.Is(err, ErrNotFound) {
		t.Fatal("corruption misreported as not-found")
	}
	if !errors.Is(err, ErrDamaged) {
		t.Fatalf("Load = %v, want ErrDamaged", err)
	}
}

func TestOpenUnwritableDir(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("running as root: permission bits are not enforced")
	}
	dir := t.TempDir()
	ro := filepath.Join(dir, "ro")
	if err := os.MkdirAll(ro, 0o555); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(ro); err == nil {
		t.Fatal("expected open error: the chunk tree cannot be created read-only")
	}
}
