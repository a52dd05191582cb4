package sommelier

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"sommelier/internal/repo"
)

// goldenIndexBytes indexes the models of source (the 24-model bench
// zoo) and returns the SaveIndexes bytes. batch selects IndexAllContext
// over source itself, which indexing only reads; otherwise the same
// models are registered one by one into an empty repository, in the
// order IndexAll would take them.
func goldenIndexBytes(t *testing.T, source *repo.Repository, segments bool, workers int, batch bool) []byte {
	t.Helper()
	ctx := context.Background()
	store := source
	if !batch {
		store = repo.NewInMemory()
	}
	eng, err := NewEngine(store,
		WithSeed(17), WithValidationSize(80), WithIndexWorkers(workers), WithSegments(segments))
	if err != nil {
		t.Fatal(err)
	}
	if batch {
		if err := eng.IndexAllContext(ctx); err != nil {
			t.Fatal(err)
		}
	} else {
		for _, md := range source.List() {
			m, err := source.Load(md.ID)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.RegisterContext(ctx, m); err != nil {
				t.Fatal(err)
			}
		}
	}
	if eng.IndexedLen() != 24 {
		t.Fatalf("indexed %d models, want 24", eng.IndexedLen())
	}
	var buf bytes.Buffer
	if err := eng.SaveIndexes(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestIndexGoldenDigest pins the index content across commits, not just
// across worker counts within one: testdata/index_golden.json holds,
// under <key>_v2, the SHA-256 of the SaveIndexes bytes. They last
// changed when semantic entries lost their "fingerprint" member, to the
// earlier bytes with exactly that member deleted. Every route into the
// index — batch or one by one, 1 or 4 workers, segments off or on —
// must produce exactly those bytes.
func TestIndexGoldenDigest(t *testing.T) {
	raw, err := os.ReadFile("testdata/index_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]string
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	source := benchCatalog(t, 0xbe7c)
	for _, segments := range []bool{false, true} {
		key := "segments_off"
		if segments {
			key = "segments_on"
		}
		for _, workers := range []int{1, 4} {
			for _, batch := range []bool{true, false} {
				name := fmt.Sprintf("%s/workers=%d/batch=%v", key, workers, batch)
				t.Run(name, func(t *testing.T) {
					sum := sha256.Sum256(goldenIndexBytes(t, source, segments, workers, batch))
					if got := hex.EncodeToString(sum[:]); got != golden[key+"_v2"] {
						t.Errorf("SaveIndexes digest = %s, golden %s", got, golden[key+"_v2"])
					}
				})
			}
		}
	}
}
