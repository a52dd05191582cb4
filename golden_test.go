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

	"sommelier/internal/index"
	"sommelier/internal/repo"
	"sommelier/internal/resource"
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

// v1Bytes projects SaveIndexes' version-2 bytes onto version 1, the
// format the first golden digests were taken of: each footprint becomes
// its profile under the default setting and the version 1; the semantic
// and default-reference sections pass through byte for byte.
func v1Bytes(t *testing.T, v2 []byte) []byte {
	t.Helper()
	var in struct {
		Semantic    json.RawMessage        `json:"semantic"`
		Resource    index.ResourceSnapshot `json:"resource"`
		DefaultRefs json.RawMessage        `json:"default_refs"`
	}
	if err := json.Unmarshal(v2, &in); err != nil {
		t.Fatal(err)
	}
	type resourceV1 struct {
		Profiles map[string]resource.Profile `json:"profiles"`
	}
	out := struct {
		Version     int             `json:"version"`
		Semantic    json.RawMessage `json:"semantic"`
		Resource    resourceV1      `json:"resource"`
		DefaultRefs json.RawMessage `json:"default_refs,omitempty"`
	}{1, in.Semantic, resourceV1{make(map[string]resource.Profile)}, in.DefaultRefs}
	for id, f := range in.Resource.Footprints {
		out.Resource.Profiles[id] = f.Under(resource.DefaultSetting())
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(&out); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestIndexGoldenDigest pins the index content across commits, not just
// across worker counts within one: testdata/index_golden.json holds the
// SHA-256 of the SaveIndexes bytes projected to version 1 and, under
// <key>_v2, of the version-2 bytes themselves. They last changed when
// semantic entries lost their "fingerprint" member, to the earlier
// bytes with exactly that member deleted. Every route into the
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
					v2 := goldenIndexBytes(t, source, segments, workers, batch)
					sum := sha256.Sum256(v1Bytes(t, v2))
					if got := hex.EncodeToString(sum[:]); got != golden[key] {
						t.Errorf("SaveIndexes digest projected to version 1 = %s, golden %s", got, golden[key])
					}
					sum = sha256.Sum256(v2)
					if got := hex.EncodeToString(sum[:]); got != golden[key+"_v2"] {
						t.Errorf("SaveIndexes digest = %s, golden %s", got, golden[key+"_v2"])
					}
				})
			}
		}
	}
}
